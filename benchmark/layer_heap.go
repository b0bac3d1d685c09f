package main

import "largewindow/internal/heap"

// heapPushPop times the event queue's heap in steady state: 64 pending
// keys, one Push and one Pop a round, keys from a seeded stream.
func heapPushPop(seed uint64) probe {
	return func(lc *layerCtx) error {
		const rounds = 1_000_000
		h := heap.NewWithCapacity(func(a, b int64) bool { return a < b }, 128)
		r := rng{x: seed}
		for i := 0; i < 64; i++ {
			h.Push(int64(r.next() >> 40))
		}
		id := lc.tr.begin(root(0), "heap", "Push+Pop", "")
		var now int64
		for i := 0; i < rounds; i++ {
			h.Push(now + int64(r.next()>>56))
			now = h.Pop()
		}
		lc.m.set("heap.pushpop_ns", lc.tr.end(id)*1e9/rounds, rounds)
		return nil
	}
}
