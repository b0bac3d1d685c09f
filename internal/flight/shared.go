package flight

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Shared is a refcounted single-flight table. The holders of a key that
// overlap in time share one value, built by the first of them that needs
// it; the entry is dropped when its last holder releases it, so a later
// holder builds again and no value outlives the holders that use it.
// The zero value is ready to use.
type Shared[V any] struct {
	mu      sync.Mutex
	entries map[string]*sharedEntry[V]
}

type sharedEntry[V any] struct {
	holders int
	slot    *Slot[V] // nil until a holder asks for the value
}

// Hold registers a holder of key without building its value. The hold
// keeps a value that overlapping holders build alive between them; call
// release exactly once to end it.
func (t *Shared[V]) Hold(key string) (release func()) {
	t.mu.Lock()
	e := t.hold(key)
	t.mu.Unlock()
	return func() { t.release(key, e) }
}

// Acquire holds key and returns its value: built with build by the first
// holder that asks while the entry lives, waited for by the others. A
// failure is shared like a success, and a panic in build reaches every
// waiter as an error carrying the panic's stack (a slot that never
// resolves would block them forever). Call release exactly once when the
// value is no longer used, whatever err is.
func (t *Shared[V]) Acquire(key string, build func() (V, error)) (v V, release func(), err error) {
	t.mu.Lock()
	e := t.hold(key)
	s, first := e.slot, e.slot == nil
	if first {
		s = &Slot[V]{done: make(chan struct{})}
		e.slot = s
	}
	t.mu.Unlock()
	release = func() { t.release(key, e) }
	if first {
		s.Resolve(recovered(build))
	}
	v, err = s.Wait()
	return v, release, err
}

func (t *Shared[V]) hold(key string) *sharedEntry[V] {
	e := t.entries[key]
	if e == nil {
		if t.entries == nil {
			t.entries = make(map[string]*sharedEntry[V])
		}
		e = &sharedEntry[V]{}
		t.entries[key] = e
	}
	e.holders++
	return e
}

func (t *Shared[V]) release(key string, e *sharedEntry[V]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.holders--; e.holders == 0 {
		delete(t.entries, key)
	}
}

// recovered runs build, turning a panic into an error that carries the
// panicking goroutine's stack.
func recovered[V any](build func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return build()
}
