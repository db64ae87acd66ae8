// Package cache implements the processor cache model used throughout the
// reproduction: set-associative (including direct-mapped) caches with
// configurable capacity, line size and read-miss penalty.
//
// The paper's synthetic evaluation (§4) models 8 KB direct-mapped primary
// instruction and data caches with 32-byte lines and a 20-cycle read-miss
// stall on a 100 MHz processor; §5.1's checksum experiment needs explicit
// cold (flushed) and warm starts; Table 3 sweeps the line size. All of that
// is expressible with this package.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes. Must be a positive multiple of
	// LineSize*Assoc.
	Size int
	// LineSize is the line (block) size in bytes. Must be a power of two.
	LineSize int
	// Assoc is the set associativity. 0 is treated as 1 (direct-mapped).
	// Assoc == Size/LineSize yields a fully associative cache.
	Assoc int
	// MissPenalty is the stall, in CPU cycles, charged for each miss.
	// (The paper charges read misses; the reference streams we simulate
	// only issue reads for code and loads, and the model charges stores
	// the same way main memory write-allocate would.)
	MissPenalty int
	// PrefetchNext, when set, fills line+1 alongside every demand miss —
	// the sequential next-line instruction prefetch §1.2 alludes to
	// ("some processors can prefetch instructions from the second level
	// cache to hide some of the cache miss cost"). Prefetched fills are
	// free of stall cycles but do occupy (and may evict) cache lines.
	PrefetchNext bool
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineSize)
	}
	assoc := c.Assoc
	if assoc == 0 {
		assoc = 1
	}
	if assoc < 0 {
		return fmt.Errorf("cache: negative associativity %d", assoc)
	}
	if c.Size <= 0 || c.Size%(c.LineSize*assoc) != 0 {
		return fmt.Errorf("cache: size %d is not a positive multiple of line*assoc = %d", c.Size, c.LineSize*assoc)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("cache: negative miss penalty %d", c.MissPenalty)
	}
	return nil
}

// Lines reports the total number of lines the cache can hold.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Stats counts cache traffic.
type Stats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	// StallCycles is Misses * MissPenalty, tracked so callers do not need
	// to know the penalty.
	StallCycles int64
	// Prefetches counts next-line fills (PrefetchNext only).
	Prefetches int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.StallCycles += other.StallCycles
	s.Prefetches += other.Prefetches
}

// Cache is a set-associative cache with true-LRU replacement. The zero
// value is not usable; construct with New.
type Cache struct {
	cfg       Config
	assoc     int
	nsets     int
	lineShift uint
	setMask   uint64

	// Per (set, way) state, flattened: index = set*assoc + way.
	tags    []uint64
	valid   []bool
	lastUse []uint64

	tick  uint64
	stats Stats
}

// New builds a cache. It panics if cfg is invalid: configurations are
// constants of an experiment, so an invalid one is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = 1
	}
	nsets := cfg.Size / (cfg.LineSize * assoc)
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		assoc:     assoc,
		nsets:     nsets,
		lineShift: shift,
		setMask:   uint64(nsets - 1),
		tags:      make([]uint64, nsets*assoc),
		valid:     make([]bool, nsets*assoc),
		lastUse:   make([]uint64, nsets*assoc),
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Access references one byte address and reports whether it hit. Misses
// fill the line, evicting the LRU way if the set is full.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	c.stats.Accesses++
	line := addr >> c.lineShift
	var set uint64
	if c.nsets > 1 {
		set = line & c.setMask
	}
	base := int(set) * c.assoc

	if c.assoc == 1 { // direct-mapped fast path
		if c.valid[base] && c.tags[base] == line {
			c.stats.Hits++
			return true
		}
		c.valid[base] = true
		c.tags[base] = line
		c.stats.Misses++
		c.stats.StallCycles += int64(c.cfg.MissPenalty)
		if c.cfg.PrefetchNext {
			c.fill(line + 1)
		}
		return false
	}

	victim, victimUse := -1, ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] {
			if c.tags[i] == line {
				c.stats.Hits++
				c.lastUse[i] = c.tick
				return true
			}
			if c.lastUse[i] < victimUse {
				victim, victimUse = i, c.lastUse[i]
			}
		} else if victimUse != 0 || victim == -1 {
			// An invalid way is always the preferred victim.
			victim, victimUse = i, 0
		}
	}
	c.valid[victim] = true
	c.tags[victim] = line
	c.lastUse[victim] = c.tick
	c.stats.Misses++
	c.stats.StallCycles += int64(c.cfg.MissPenalty)
	if c.cfg.PrefetchNext {
		c.fill(line + 1)
	}
	return false
}

// fill inserts a line without charging an access or a stall (prefetch).
func (c *Cache) fill(line uint64) {
	var set uint64
	if c.nsets > 1 {
		set = line & c.setMask
	}
	base := int(set) * c.assoc
	victim, victimUse := base, ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] {
			if c.tags[i] == line {
				return // already resident
			}
			if c.lastUse[i] < victimUse {
				victim, victimUse = i, c.lastUse[i]
			}
		} else {
			victim, victimUse = i, 0
		}
	}
	c.valid[victim] = true
	c.tags[victim] = line
	c.lastUse[victim] = c.tick
	c.stats.Prefetches++
}

// AccessRange references every line overlapping [addr, addr+n) in ascending
// order and reports the number of misses. n <= 0 touches nothing.
func (c *Cache) AccessRange(addr uint64, n int) (misses int) {
	if n <= 0 {
		return 0
	}
	first := addr >> c.lineShift
	last := (addr + uint64(n) - 1) >> c.lineShift
	if c.assoc == 1 && !c.cfg.PrefetchNext {
		// Direct-mapped, the paper's geometry: Access's fast path over
		// the whole range, with the stats added once.
		for line := first; line <= last; line++ {
			i := line & c.setMask
			if !c.valid[i] || c.tags[i] != line {
				c.valid[i], c.tags[i] = true, line
				misses++
			}
		}
		lines := int64(last - first + 1)
		c.tick += uint64(lines)
		c.stats.Accesses += lines
		c.stats.Hits += lines - int64(misses)
		c.stats.Misses += int64(misses)
		c.stats.StallCycles += int64(misses) * int64(c.cfg.MissPenalty)
		return misses
	}
	for line := first; line <= last; line++ {
		if !c.Access(line << c.lineShift) {
			misses++
		}
	}
	return misses
}

// Probe reports whether addr would hit, without changing cache state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	var set uint64
	if c.nsets > 1 {
		set = line & c.setMask
	}
	base := int(set) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Flush invalidates every line, modelling a cold cache. Statistics are
// preserved.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// ResetStats clears the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ValidLines reports how many lines currently hold data; it never exceeds
// Config().Lines().
func (c *Cache) ValidLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
