// Package flight is the campaign tier's single-flight: "resolve this
// content ID at most once, and hand every asker the same answer". The
// engine's cells, the checkpoint cache and the harness session's program
// lengths and resolved workloads are each a Memo keyed by a content ID;
// the programs of the cells in flight are a Shared table, which forgets a
// key once nothing holds it.
package flight

import "sync"

// Slot is one key's resolution. The claimer that saw first == true owes
// it exactly one Resolve; everyone else Waits. A Slot that is never
// resolved blocks its waiters forever, so the resolver must turn panics
// into errors before they reach it (the engine and the harness both do).
type Slot[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Resolve publishes the key's value (or its error — failures are
// memoized like successes) and releases every waiter.
func (s *Slot[V]) Resolve(v V, err error) {
	s.v, s.err = v, err
	close(s.done)
}

// Wait blocks until the slot is resolved and returns what it resolved to.
func (s *Slot[V]) Wait() (V, error) {
	<-s.done
	return s.v, s.err
}

// Memo maps keys to slots. The zero value is ready to use; entries are
// never evicted (a campaign's key set is its manifest).
type Memo[V any] struct {
	mu    sync.Mutex
	slots map[string]*Slot[V]
}

// Claim returns the key's slot, creating it on first sight. first is
// true for exactly one caller per key: the one that must Resolve it,
// itself or by handing the slot to a worker.
func (m *Memo[V]) Claim(key string) (slot *Slot[V], first bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.slots[key]; ok {
		return s, false
	}
	if m.slots == nil {
		m.slots = make(map[string]*Slot[V])
	}
	s := &Slot[V]{done: make(chan struct{})}
	m.slots[key] = s
	return s, true
}

// Do resolves key with fn at most once: the first caller runs fn on its
// own goroutine, every other caller (concurrent or later) waits for that
// result. fn runs outside the memo's lock, so distinct keys never
// serialise on each other.
func (m *Memo[V]) Do(key string, fn func() (V, error)) (v V, err error, first bool) {
	s, first := m.Claim(key)
	if first {
		s.Resolve(fn())
	}
	v, err = s.Wait()
	return v, err, first
}
