// Package mem models the simulated memory system of paper Table 1:
// split 32KB 4-way L1 caches (2-cycle), a unified 256KB 4-way L2
// (10-cycle), a 250-cycle main memory, and a 128-entry 4-way D-TLB with
// 4KB pages and a 30-cycle miss penalty. Caches are non-blocking: misses
// to a line already in flight merge with the outstanding fill
// (MSHR-style), and the hierarchy reports the cycle at which data becomes
// available rather than stalling.
package mem

import "fmt"

// CacheConfig sizes one cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Validate checks the geometry is a usable power-of-two arrangement.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry %+v", c.Name, c)
	}
	sets := c.SizeBytes / (c.Assoc * c.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d is not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats counts the traffic seen by one cache.
type CacheStats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Sub returns the traffic since the earlier snapshot prev.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{s.Accesses - prev.Accesses, s.Misses - prev.Misses, s.Writebacks - prev.Writebacks}
}

// Add sums window w's traffic into s.
func (s *CacheStats) Add(w CacheStats) {
	s.Accesses += w.Accesses
	s.Misses += w.Misses
	s.Writebacks += w.Writebacks
}

// MissRatio is Misses/Accesses (0 when idle). For the L2 this is the
// "local" miss ratio of paper Table 2 because only L1 misses reach it.
func (s CacheStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// tagArray is a set-associative array of tags with true-LRU replacement:
// the storage and the one lookup shared by the caches (line tags) and the
// TLB (page tags). The tag is the full unit number, which keeps lookups
// unambiguous.
type tagArray struct {
	sets    [][]line
	setMask uint64
	shift   uint // log2 of the unit (line or page) size in bytes
	tick    uint64
}

// newTagArray lays out nsets sets of assoc ways over units of unitBytes
// (both powers of two; the callers validate).
func newTagArray(nsets, assoc int, unitBytes uint64) tagArray {
	sets := make([][]line, nsets)
	backing := make([]line, nsets*assoc)
	for i := range sets {
		sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	shift := uint(0)
	for uint64(1)<<shift != unitBytes {
		shift++
	}
	return tagArray{sets: sets, setMask: uint64(nsets - 1), shift: shift}
}

func (a *tagArray) index(addr uint64) (set uint64, tag uint64) {
	unit := addr >> a.shift
	return unit & a.setMask, unit
}

// touch is the one set-associative lookup of the memory system: it finds
// addr's tag among its set's ways, refreshing its LRU stamp (and dirtying
// it on a store) on a hit, and on a miss installs it over the first
// invalid way or, failing one, the least recently used, reporting whether
// that victim was dirty. It counts nothing: the timed path (Cache.Access,
// TLB.Translate) and the stat-free warm path (Cache.Warm, TLB.Warm) are
// their own counters around it, so all four replace identically.
func (a *tagArray) touch(addr uint64, store bool) (hit, evictedDirty bool) {
	a.tick++
	set, tag := a.index(addr)
	ways := a.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = a.tick
			if store {
				ways[i].dirty = true
			}
			return true, false
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	evictedDirty = ways[victim].valid && ways[victim].dirty
	ways[victim] = line{tag: tag, valid: true, dirty: store, lru: a.tick}
	return false, evictedDirty
}

// Cache is one set-associative, write-back, write-allocate cache with
// true-LRU replacement. It tracks tags only; simulated data lives in the
// architectural isa.Memory.
type Cache struct {
	tagArray
	stats CacheStats
}

// NewCache builds a cache; the configuration must validate.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	return &Cache{tagArray: newTagArray(nsets, cfg.Assoc, uint64(cfg.LineBytes))}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

// Probe reports whether addr currently hits, without updating LRU or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, updating LRU and statistics. On a miss it
// allocates the line (evicting LRU) and counts a writeback when the
// victim was dirty. store marks the line dirty.
func (c *Cache) Access(addr uint64, store bool) (hit bool) {
	c.stats.Accesses++
	hit, evictedDirty := c.touch(addr, store)
	if !hit {
		c.stats.Misses++
		if evictedDirty {
			c.stats.Writebacks++
		}
	}
	return hit
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() CacheStats { return c.stats }
