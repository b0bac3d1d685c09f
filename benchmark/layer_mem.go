package main

import (
	"time"

	"largewindow/internal/mem"
)

// replayMem times the captured loads, stores and fetches through one of
// the hierarchy's three access triplets and records ns per access.
func replayMem(lc *layerCtx, c *capture, name string, load, store, fetch func(addr uint64)) {
	id := lc.tr.begin(root(0), "mem", name, "")
	t0 := time.Now()
	for i := range c.events {
		switch ev := &c.events[i]; ev.kind {
		case evLoad:
			load(ev.a)
		case evStore:
			store(ev.a)
		case evFetch:
			fetch(ev.a)
		}
	}
	ns := float64(time.Since(t0).Nanoseconds())
	lc.tr.end(id)
	lc.m.set(name, ratio(ns, float64(c.mems)), c.mems)
}

// memTimed replays through the timed path (Load/Store/Fetch) with the
// clock advancing four cycles an access, as the detailed core drives it.
func memTimed(c *capture, cfg mem.Config) probe {
	return func(lc *layerCtx) error {
		h := mem.NewHierarchy(cfg)
		var now int64
		tick := func() int64 { now += 4; return now }
		replayMem(lc, c, "mem.timed_ns_per_access",
			func(a uint64) { h.Load(a, tick()) },
			func(a uint64) { h.Store(a, tick()) },
			func(a uint64) { h.Fetch(a, tick()) })
		return nil
	}
}

// memWarm replays through the stat-free warm path, as sampling drives it
// between windows.
func memWarm(c *capture, cfg mem.Config) probe {
	return func(lc *layerCtx) error {
		h := mem.NewHierarchy(cfg)
		replayMem(lc, c, "mem.warm_ns_per_access", h.WarmLoad, h.WarmStore, h.WarmFetch)
		return nil
	}
}

// memProfile replays through the stat-counting profile path, as the
// interval model's collector drives it.
func memProfile(c *capture, cfg mem.Config) probe {
	return func(lc *layerCtx) error {
		h := mem.NewHierarchy(cfg)
		replayMem(lc, c, "mem.profile_ns_per_access",
			func(a uint64) { h.ProfileLoad(a) },
			func(a uint64) { h.ProfileStore(a) },
			func(a uint64) { h.ProfileFetch(a) })
		return nil
	}
}
