package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoRunsOncePerKey: N concurrent Dos of one key run fn once, exactly
// one of them sees first, and all of them get the same value.
func TestDoRunsOncePerKey(t *testing.T) {
	var m Memo[*int]
	var calls, firsts atomic.Int32
	const callers = 32
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, first := m.Do("k", func() (*int, error) {
				calls.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
			}
			if first {
				firsts.Add(1)
			}
			got[g] = v
		}()
	}
	wg.Wait()
	if calls.Load() != 1 || firsts.Load() != 1 {
		t.Errorf("fn ran %d times and %d callers saw first, want 1 and 1", calls.Load(), firsts.Load())
	}
	for g, v := range got {
		if v == nil || v != got[0] {
			t.Errorf("caller %d got %p, caller 0 got %p", g, v, got[0])
		}
	}
}

// TestDoMemoizesErrors: a failed resolution is not retried; later callers
// get the same error without running fn.
func TestDoMemoizesErrors(t *testing.T) {
	var m Memo[int]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err, first := m.Do("k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) || first != (i == 0) {
			t.Errorf("call %d: err=%v first=%v", i, err, first)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
}

// TestDistinctKeysDoNotSerialise: key a's fn blocks until key b's fn has
// run, which deadlocks if Do holds the memo's lock across fn.
func TestDistinctKeysDoNotSerialise(t *testing.T) {
	var m Memo[string]
	bRan := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _, _ := m.Do("a", func() (string, error) {
			<-bRan
			return "a", nil
		})
		done <- v
	}()
	if v, _, _ := m.Do("b", func() (string, error) {
		close(bRan)
		return "b", nil
	}); v != "b" {
		t.Errorf(`Do("b") = %q`, v)
	}
	if v := <-done; v != "a" {
		t.Errorf(`Do("a") = %q`, v)
	}
}

// TestClaimThenResolveElsewhere is the engine's shape: the claimer hands
// the slot to another goroutine, and waiters that arrive before and after
// the Resolve all see its value.
func TestClaimThenResolveElsewhere(t *testing.T) {
	var m Memo[int]
	slot, first := m.Claim("k")
	if !first {
		t.Fatal("first Claim not first")
	}
	if again, first := m.Claim("k"); first || again != slot {
		t.Fatalf("second Claim = %p, %v; want the same slot, not first", again, first)
	}
	early := make(chan int)
	go func() {
		v, _ := slot.Wait()
		early <- v
	}()
	go slot.Resolve(7, nil)
	if v := <-early; v != 7 {
		t.Errorf("early waiter got %d", v)
	}
	if v, err := slot.Wait(); v != 7 || err != nil {
		t.Errorf("late waiter got %d, %v", v, err)
	}
}
