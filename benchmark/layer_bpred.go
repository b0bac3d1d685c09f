package main

import (
	"time"

	"largewindow/internal/bpred"
)

// replayBranches times fn over the captured control transfers and
// records ns per branch.
func replayBranches(lc *layerCtx, c *capture, name string, fn func(ev *event)) {
	id := lc.tr.begin(root(0), "bpred", name, "")
	t0 := time.Now()
	for i := range c.events {
		if ev := &c.events[i]; ev.kind == evBranch {
			fn(ev)
		}
	}
	ns := float64(time.Since(t0).Nanoseconds())
	lc.tr.end(id)
	lc.m.set(name, ratio(ns, float64(c.brs)), c.brs)
}

// bpredPredictCommit replays through the detailed core's sequence: Predict
// at fetch, Squash and Redo on a wrong direction, Commit at retire.
func bpredPredictCommit(c *capture, cfg bpred.Config) probe {
	return func(lc *layerCtx) error {
		p := bpred.New(cfg)
		replayBranches(lc, c, "bpred.predict_commit_ns_per_branch", func(ev *event) {
			in := c.progs[ev.prog].Code[ev.a]
			pr, cp := p.Predict(ev.a, in)
			if pr.Taken != ev.taken {
				p.Squash(cp)
				p.Redo(ev.a, in, cp, ev.taken)
			}
			p.Commit(ev.a, in, cp, ev.taken, ev.b)
		})
		return nil
	}
}

// bpredWarm replays through WarmBranch, and times Clone of the trained
// predictor: sampling clones it once per window.
func bpredWarm(c *capture, cfg bpred.Config) probe {
	return func(lc *layerCtx) error {
		p := bpred.New(cfg)
		replayBranches(lc, c, "bpred.warm_ns_per_branch", func(ev *event) {
			p.WarmBranch(ev.a, ev.b, ev.taken, ev.cond, ev.btb)
		})
		const clones = 200
		id := lc.tr.begin(root(0), "bpred", "Clone", "")
		for i := 0; i < clones; i++ {
			p.Clone()
		}
		lc.m.set("bpred.clone_us", lc.tr.end(id)*1e6/clones, clones)
		return nil
	}
}

// bpredProfile replays through ProfileBranch, as the interval model's
// collector drives it.
func bpredProfile(c *capture, cfg bpred.Config) probe {
	return func(lc *layerCtx) error {
		p := bpred.New(cfg)
		replayBranches(lc, c, "bpred.profile_ns_per_branch", func(ev *event) {
			p.ProfileBranch(ev.a, ev.b, ev.taken, ev.cond, ev.btb)
		})
		return nil
	}
}
