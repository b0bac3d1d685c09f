package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"largewindow/internal/schema"
)

// DefaultSubscriberBuffer is the per-subscriber channel depth used when
// Subscribe is given a non-positive buffer.
const DefaultSubscriberBuffer = 256

// Bus fans lifecycle events out to any number of subscribers without
// ever blocking the publisher: each subscriber owns a bounded channel,
// and a subscriber that cannot keep up loses events (counted, and
// surfaced to it as a gap event) rather than stalling the coordinator's
// dispatch path. A nil *Bus is valid and publishes nowhere — the
// disabled state.
type Bus struct {
	mu   sync.Mutex
	subs map[*Subscriber]struct{}
	seq  atomic.Uint64

	published atomic.Uint64
	dropped   atomic.Uint64
}

// NewBus builds an event bus with no subscribers.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscriber]struct{})}
}

// Publish stamps ev (schema version, sequence number, wall time when
// unset) and offers it to every subscriber, dropping it at any
// subscriber whose buffer is full. Safe for concurrent use; a nil bus
// ignores the call.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	ev.SchemaVersion = schema.EventVersion
	ev.Seq = b.seq.Add(1)
	if ev.TimeUS == 0 {
		ev.TimeUS = time.Now().UnixMicro()
	}
	b.published.Add(1)
	b.mu.Lock()
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Subscribe attaches a new subscriber with the given buffer depth
// (<= 0: DefaultSubscriberBuffer). The caller must drain Events() and
// call Unsubscribe when done.
func (b *Bus) Subscribe(buf int) *Subscriber {
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	s := &Subscriber{ch: make(chan Event, buf)}
	b.mu.Lock()
	if b.subs == nil {
		b.subs = make(map[*Subscriber]struct{}) // zero-value Bus works too
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Unsubscribe detaches s and closes its channel; safe to call once per
// subscriber, concurrently with Publish.
func (b *Bus) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	_, ok := b.subs[s]
	delete(b.subs, s)
	b.mu.Unlock()
	if ok {
		close(s.ch)
	}
}

// Subscribers reports the current subscriber count.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Published reports events published to the bus (delivered or not).
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Dropped reports event deliveries lost to full subscriber buffers,
// summed over all subscribers.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscriber is one attached consumer of a Bus.
type Subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// Events returns the subscriber's delivery channel. It is closed by
// Unsubscribe.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// TakeDropped returns and resets the count of events dropped at this
// subscriber since the last call — the hook SSE writers use to emit a
// gap marker before the next delivered event.
func (s *Subscriber) TakeDropped() uint64 {
	return s.dropped.Swap(0)
}
