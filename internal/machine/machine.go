// Package machine provides the synthetic machine model underlying the
// paper's §4 evaluation and §5.1 checksum experiment: a CPU with split
// primary caches, code/data segments placed in a simulated address space
// (including the random placements the paper averages over), and cycle
// accounting that separates instruction-issue cycles from memory stalls.
//
// The model is the one the paper describes: a 100 MHz processor whose every
// read cache miss stalls it for a fixed number of cycles, in front of 8 KB
// direct-mapped primary instruction and data caches with 32-byte lines.
// Nothing architectural beyond that is simulated — the paper's results
// depend only on the reference stream and the cache geometry.
package machine

import (
	"fmt"
	"math/rand"

	"ldlp/internal/cache"
)

// Class labels what a segment holds. The distinction matters for analysis
// (Table 1 separates code, read-only data and mutable data) and for routing
// references to the right cache.
type Class int

const (
	// Code is instruction bytes, fetched through the I-cache.
	Code Class = iota
	// ReadOnly is constant data, loaded through the D-cache.
	ReadOnly
	// Mutable is read-write data, loaded/stored through the D-cache.
	Mutable
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case Code:
		return "code"
	case ReadOnly:
		return "read-only"
	case Mutable:
		return "mutable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Segment is a contiguous region of the simulated address space: a layer's
// code, a function, a data structure, or a message buffer. Segments are
// created unplaced; a Layout assigns addresses.
type Segment struct {
	Name  string
	Class Class
	Size  int

	addr   uint64
	placed bool
}

// NewSegment creates an unplaced segment. Size must be positive.
func NewSegment(name string, class Class, size int) *Segment {
	if size <= 0 {
		panic(fmt.Sprintf("machine: segment %q has non-positive size %d", name, size))
	}
	return &Segment{Name: name, Class: class, Size: size}
}

// Addr returns the segment's base address. It panics if the segment has not
// been placed; referencing an unplaced segment is a programming error.
func (s *Segment) Addr() uint64 {
	if !s.placed {
		panic(fmt.Sprintf("machine: segment %q referenced before placement", s.Name))
	}
	return s.addr
}

// SetAddr places the segment explicitly. Most callers should use a Layout.
func (s *Segment) SetAddr(addr uint64) {
	s.addr = addr
	s.placed = true
}

// Layout places segments in the simulated address space.
//
// For a direct-mapped cache the only thing that matters about a placement
// is each segment's base address modulo the cache size. The paper presents
// averages over 100 runs, "each with a different random placement in
// memory", to insulate the results from layout effects. PlaceRandom
// reproduces that: each segment gets its own generous address-space slot
// (so segments can never overlap) plus a random line-aligned offset that
// randomizes which cache sets it occupies.
type Layout struct {
	lineSize int
	next     uint64
	slot     uint64
}

// NewLayout creates a layout that aligns placements to lineSize (which must
// be a power of two).
func NewLayout(lineSize int) *Layout {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("machine: layout line size %d is not a power of two", lineSize))
	}
	return &Layout{lineSize: lineSize, slot: 1 << 24}
}

// PlaceSequential places segments back to back, each aligned to the line
// size — a dense, self-conflict-free layout like the per-layer layouts the
// paper assumes within a layer.
func (l *Layout) PlaceSequential(segs ...*Segment) {
	for _, s := range segs {
		s.SetAddr(l.next)
		l.next += roundUp(uint64(s.Size), uint64(l.lineSize))
	}
}

// PlaceRandom gives each segment a disjoint 16 MB slot with a random
// line-aligned starting offset drawn from rng within [0, jitter). Pass the
// cache size as jitter to randomize the conflict pattern exactly as a whole-
// program random placement would for a direct-mapped cache of that size.
func (l *Layout) PlaceRandom(rng *rand.Rand, jitter int, segs ...*Segment) {
	if jitter < l.lineSize {
		jitter = l.lineSize
	}
	lines := jitter / l.lineSize
	for _, s := range segs {
		off := uint64(rng.Intn(lines)) * uint64(l.lineSize)
		s.SetAddr(l.next + off)
		l.next += l.slot
	}
}

func roundUp(v, align uint64) uint64 {
	return (v + align - 1) / align * align
}

// Config parameterizes a CPU.
type Config struct {
	// ClockHz is the CPU clock. The paper uses 100 MHz for Figures 5 and 6
	// and sweeps 10–80 MHz for Figure 7.
	ClockHz float64
	// ICache and DCache describe the primary caches.
	ICache cache.Config
	DCache cache.Config
	// Unified, when set, backs instruction and data references with one
	// cache built from the ICache configuration (Figure 4's caption notes
	// the paper's results hold equally well for unified caches; this
	// makes that claim testable). DCache is ignored except that its
	// MissPenalty must match ICache's.
	Unified bool
}

// DefaultConfig is the §4 machine: 100 MHz, 8 KB direct-mapped split
// caches, 32-byte lines, 20-cycle read-miss stall.
func DefaultConfig() Config {
	c := cache.Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20}
	return Config{ClockHz: 100e6, ICache: c, DCache: c}
}

// CPU models the processor: caches plus a cycle accumulator. Cycles are
// float64 because the paper's data loop costs 0.5 cycles per byte.
type CPU struct {
	cfg Config
	I   *cache.Cache
	D   *cache.Cache

	issueCycles float64
	stallCycles float64
}

// New builds a CPU. Invalid cache configs panic (see cache.New).
func New(cfg Config) *CPU {
	if cfg.ClockHz <= 0 {
		panic(fmt.Sprintf("machine: non-positive clock %v", cfg.ClockHz))
	}
	if cfg.Unified {
		u := cache.New(cfg.ICache)
		return &CPU{cfg: cfg, I: u, D: u}
	}
	return &CPU{cfg: cfg, I: cache.New(cfg.ICache), D: cache.New(cfg.DCache)}
}

// Config returns the CPU's configuration.
func (c *CPU) Config() Config { return c.cfg }

// AddIssueCycles charges instruction-issue time without touching memory.
func (c *CPU) AddIssueCycles(n float64) { c.issueCycles += n }

// TouchCode fetches [addr, addr+n) through the I-cache and charges the miss
// stalls. It returns the number of line misses. Issue cycles for the
// instructions themselves are charged separately by the caller, which knows
// how many of the fetched instructions actually execute.
func (c *CPU) TouchCode(addr uint64, n int) int {
	m := c.I.AccessRange(addr, n)
	c.stallCycles += float64(m * c.cfg.ICache.MissPenalty)
	return m
}

// TouchData references [addr, addr+n) through the D-cache and charges the
// miss stalls, returning the number of line misses.
func (c *CPU) TouchData(addr uint64, n int) int {
	m := c.D.AccessRange(addr, n)
	c.stallCycles += float64(m * c.cfg.DCache.MissPenalty)
	return m
}

// ExecSegment runs an entire code segment once: every line is fetched (the
// paper's synthetic layers execute each instruction in the working set at
// least once) and issueCycles are charged.
func (c *CPU) ExecSegment(s *Segment, issueCycles float64) {
	c.TouchCode(s.Addr(), s.Size)
	c.issueCycles += issueCycles
}

// Cycles returns total consumed cycles (issue + stall).
func (c *CPU) Cycles() float64 { return c.issueCycles + c.stallCycles }

// StallCycles returns cycles spent stalled on cache misses.
func (c *CPU) StallCycles() float64 { return c.stallCycles }

// Seconds converts the consumed cycles to wall time at the configured clock.
func (c *CPU) Seconds() float64 { return c.Cycles() / c.cfg.ClockHz }

// ResetCycles clears the cycle accumulators but leaves cache contents
// intact (the cache stays warm across messages; that is the whole point).
func (c *CPU) ResetCycles() { c.issueCycles, c.stallCycles = 0, 0 }

// ColdStart flushes both caches and clears cycle accounting — a fresh run.
func (c *CPU) ColdStart() {
	c.I.Flush()
	c.I.ResetStats()
	if c.D != c.I {
		c.D.Flush()
		c.D.ResetStats()
	}
	c.ResetCycles()
}

// Arena hands out message-buffer addresses from a circular line-aligned
// region, modelling a buffer pool: successive allocations are adjacent
// (like chained allocations from a kernel buffer arena) and wrap after
// Size bytes, so long-running simulations reuse buffer addresses the way a
// real pool does.
type Arena struct {
	base uint64
	size uint64
	next uint64
	line uint64
}

// NewArena builds an arena of size bytes at base, aligning allocations to
// lineSize.
func NewArena(base uint64, size, lineSize int) *Arena {
	if size <= 0 || lineSize <= 0 || size%lineSize != 0 {
		panic(fmt.Sprintf("machine: invalid arena size %d / line %d", size, lineSize))
	}
	return &Arena{base: base, size: uint64(size), line: uint64(lineSize)}
}

// Alloc returns the address of an n-byte buffer. Buffers never straddle the
// wrap point.
func (a *Arena) Alloc(n int) uint64 {
	need := roundUp(uint64(n), a.line)
	if need > a.size {
		panic(fmt.Sprintf("machine: arena allocation %d exceeds arena size %d", n, a.size))
	}
	if a.next+need > a.size {
		a.next = 0
	}
	addr := a.base + a.next
	a.next += need
	return addr
}
