package flight

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedBuildsOncePerOverlap: holders that overlap share one build;
// the entry is gone once the last releases, and the next holder builds
// again.
func TestSharedBuildsOncePerOverlap(t *testing.T) {
	var tab Shared[*int]
	var builds atomic.Int32
	build := func() (*int, error) {
		builds.Add(1)
		return new(int), nil
	}
	const holders = 16
	start := make(chan struct{})
	got := make([]*int, holders)
	releases := make([]func(), holders)
	var wg sync.WaitGroup
	for g := range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, release, err := tab.Acquire("k", build)
			if err != nil {
				t.Errorf("holder %d: %v", g, err)
			}
			got[g], releases[g] = v, release
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d overlapping holders caused %d builds, want 1", holders, n)
	}
	for g, v := range got {
		if v != got[0] {
			t.Errorf("holder %d got a different value", g)
		}
	}
	for _, release := range releases {
		release()
	}
	if n := len(tab.entries); n != 0 {
		t.Fatalf("%d entries left after every holder released", n)
	}
	v, release, _ := tab.Acquire("k", build)
	release()
	if builds.Load() != 2 || v == got[0] {
		t.Errorf("a holder after the last release got the old value (%d builds)", builds.Load())
	}
}

// TestSharedHoldKeepsValue: a Hold keeps a built value alive between two
// holders that do not overlap each other, and builds nothing itself.
func TestSharedHoldKeepsValue(t *testing.T) {
	var tab Shared[*int]
	var builds int
	build := func() (*int, error) {
		builds++
		return new(int), nil
	}
	unhold := tab.Hold("k")
	if builds != 0 {
		t.Fatal("Hold built the value")
	}
	a, releaseA, _ := tab.Acquire("k", build)
	releaseA()
	b, releaseB, _ := tab.Acquire("k", build)
	releaseB()
	if builds != 1 || a != b {
		t.Errorf("%d builds across a hold, want 1", builds)
	}
	unhold()
	if n := len(tab.entries); n != 0 {
		t.Errorf("%d entries left after the hold ended", n)
	}
}

// TestSharedPanicReachesEveryWaiter: a panicking build resolves the slot
// with an error carrying the panic's stack, for the builder and every
// holder waiting on it; errors are shared like values while held.
func TestSharedPanicReachesEveryWaiter(t *testing.T) {
	var tab Shared[int]
	entered, proceed := make(chan struct{}), make(chan struct{})
	const waiters = 4
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, release, err := tab.Acquire("k", func() (int, error) {
			close(entered)
			<-proceed
			panic("bad kernel")
		})
		defer release()
		errs[0] = err
	}()
	<-entered
	var returned atomic.Int32
	for g := 1; g <= waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, release, err := tab.Acquire("k", func() (int, error) { return 1, nil })
			defer release()
			errs[g] = err
			returned.Add(1)
		}()
	}
	// Every waiter holds the entry before the build panics; none returns
	// while the build runs.
	for held := 0; held < waiters+1 && returned.Load() == 0; time.Sleep(100 * time.Microsecond) {
		tab.mu.Lock()
		held = tab.entries["k"].holders
		tab.mu.Unlock()
	}
	if n := returned.Load(); n > 0 {
		t.Errorf("%d holders returned while the build they share was running", n)
	}
	close(proceed)
	wg.Wait()
	for g, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic: bad kernel") || !strings.Contains(err.Error(), "TestSharedPanicReachesEveryWaiter") {
			t.Errorf("holder %d: error %v, want the panic with its stack", g, err)
		}
	}
	if len(tab.entries) != 0 {
		t.Error("a failed build left its entry behind")
	}
	boom := errors.New("boom")
	_, release, err := tab.Acquire("k", func() (int, error) { return 0, boom })
	release()
	if !errors.Is(err, boom) {
		t.Errorf("build error %v, want %v", err, boom)
	}
}
