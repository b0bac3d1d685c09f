package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	c := newCache(CacheConfig{Name: "t", SizeBytes: 512, Assoc: 2, LineBytes: 64})
	return &c
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "g", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero"},
		{Name: "npow2", SizeBytes: 3 * 64, Assoc: 1, LineBytes: 64},
		{Name: "line", SizeBytes: 512, Assoc: 2, LineBytes: 48},
		{Name: "neg", SizeBytes: -1, Assoc: 1, LineBytes: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	if !c.Access(0x1038, false) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := smallCache() // 2-way; lines mapping to set 0: stride 4*64 = 256
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a evicted, expected b")
	}
	if c.Probe(b) {
		t.Error("b survived, expected eviction")
	}
	if !c.Probe(d) {
		t.Error("d not present")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := smallCache()
	c.Access(0, true)    // dirty
	c.Access(256, false) // fills other way
	c.Access(512, false) // evicts line 0 (dirty) -> writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	c.Access(768, false) // evicts clean line 256
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("clean eviction counted as writeback: %d", got)
	}
}

func TestCacheProbeDoesNotPerturb(t *testing.T) {
	c := smallCache()
	c.Probe(0x40)
	if c.Stats().Accesses != 0 {
		t.Error("Probe counted as access")
	}
	c.Access(0, false)
	c.Access(256, false)
	c.Probe(0) // must NOT refresh LRU
	c.Access(512, false)
	if c.Probe(0) {
		t.Error("probe refreshed LRU: line 0 should have been evicted")
	}
}

func TestCacheDistinguishesTagsBeyondIndex(t *testing.T) {
	// Two addresses with identical set index but different tags must not
	// alias.
	c := smallCache()
	c.Access(0, false)
	if c.Probe(1 << 20) {
		t.Error("distinct tag reported present")
	}
}

func TestCacheMissRatioProperty(t *testing.T) {
	// Any access pattern confined to a working set smaller than capacity
	// eventually stops missing.
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newCache(CacheConfig{Name: "p", SizeBytes: 4096, Assoc: 4, LineBytes: 64})
		// Working set: exactly 2 lines per set (16 sets, 4 ways), so the
		// whole set fits regardless of access order.
		addrs := make([]uint64, 0, 32)
		for set := uint64(0); set < 16; set++ {
			t1 := uint64(r.Intn(1 << 8))
			t2 := t1 + 1 + uint64(r.Intn(1<<8))
			addrs = append(addrs, (t1*16+set)*64, (t2*16+set)*64)
		}
		r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		for pass := 0; pass < 4; pass++ {
			for _, a := range addrs {
				c.Access(a, false)
			}
		}
		before := c.Stats().Misses
		for _, a := range addrs {
			c.Access(a, false)
		}
		return c.Stats().Misses == before
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCacheStatsMissRatio(t *testing.T) {
	var s CacheStats
	if s.MissRatio() != 0 {
		t.Error("idle miss ratio not 0")
	}
	s = CacheStats{Accesses: 4, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Errorf("miss ratio = %v", s.MissRatio())
	}
}

// TestCacheStatsWindowArithmetic: Sub and Add cover every field (the
// window's traffic put back onto the earlier snapshot is the later one).
func TestCacheStatsWindowArithmetic(t *testing.T) {
	f := func(now, d CacheStats) bool {
		prev := now.Sub(d)
		sum := prev
		sum.Add(now.Sub(prev))
		return now.Sub(prev) == d && sum == now && now.Sub(now) == (CacheStats{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
