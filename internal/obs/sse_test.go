package obs

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSSERoundTrip runs the real handler against the real client over
// an httptest server: events published on the bus must arrive decoded,
// schema-checked, and in order.
func TestSSERoundTrip(t *testing.T) {
	bus := NewBus()
	srv := httptest.NewServer(SSEHandler(bus))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan Event, 16)
	errc := make(chan error, 1)
	go func() {
		errc <- StreamEvents(ctx, nil, srv.URL, func(ev Event) error {
			got <- ev
			return nil
		})
	}()

	// The subscriber attaches asynchronously; publish until delivery
	// rather than racing a sleep against the handler's subscribe.
	deadline := time.After(5 * time.Second)
	var first Event
waitFirst:
	for {
		bus.Publish(Event{Type: EventSubmit, CellID: "c1", CorrID: "abc"})
		select {
		case first = <-got:
			break waitFirst
		case <-deadline:
			t.Fatal("no event arrived over SSE")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if first.Type != EventSubmit || first.CellID != "c1" || first.CorrID != "abc" {
		t.Fatalf("first event = %+v", first)
	}

	// The loop above may have published more submits while the first
	// was on its way; they arrive, in order, before the completion.
	bus.Publish(Event{Type: EventComplete, CellID: "c1", Worker: "w0"})
	for last := first.Seq; ; {
		var ev Event
		select {
		case ev = <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("second event never arrived")
		}
		if ev.Seq <= last {
			t.Fatalf("sequence regressed: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if ev.Type == EventComplete && ev.Worker == "w0" {
			break
		}
		if ev.Type != EventSubmit || ev.CellID != "c1" {
			t.Fatalf("second event = %+v", ev)
		}
	}

	cancel()
	if err := <-errc; err != nil && ctx.Err() == nil {
		t.Fatalf("stream ended badly: %v", err)
	}
}

// TestSSEHandlerNilBus asserts the disabled state answers 503, the
// contract the coordinator relies on when -events is off.
func TestSSEHandlerNilBus(t *testing.T) {
	rr := httptest.NewRecorder()
	SSEHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
	if rr.Code != 503 {
		t.Fatalf("nil-bus handler answered %d, want 503", rr.Code)
	}
}

// TestStreamEventsCallbackError proves a consumer can stop the stream
// by returning an error, and receives that error back.
func TestStreamEventsCallbackError(t *testing.T) {
	bus := NewBus()
	srv := httptest.NewServer(SSEHandler(bus))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- StreamEvents(ctx, nil, srv.URL, func(ev Event) error {
			return context.Canceled // any sentinel
		})
	}()
	// Publish until the subscriber exists and the callback fires.
	for {
		bus.Publish(Event{Type: EventSubmit})
		select {
		case err := <-errc:
			if err != context.Canceled {
				t.Fatalf("got %v, want callback's error", err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if ctx.Err() != nil {
			t.Fatal("callback error never surfaced")
		}
	}
}
