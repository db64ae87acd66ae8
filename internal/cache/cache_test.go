package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func dm8k() *Cache {
	return New(Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20})
}

func TestColdMissThenHit(t *testing.T) {
	c := dm8k()
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x101f) {
		t.Error("same 32-byte line should hit")
	}
	if c.Access(0x1020) {
		t.Error("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4/2/2", s)
	}
	if s.StallCycles != 40 {
		t.Errorf("stall cycles = %d, want 40", s.StallCycles)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := dm8k()
	// Two addresses 8 KB apart map to the same set in an 8 KB direct-mapped
	// cache and must evict each other.
	c.Access(0)
	c.Access(8192)
	if c.Access(0) {
		t.Error("address 0 should have been evicted by its conflict")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	c := New(Config{Size: 8192, LineSize: 32, Assoc: 2, MissPenalty: 20})
	// In a 2-way cache the same two lines coexist: sets = 8192/(32*2) = 128,
	// so addresses 0 and 128*32 = 4096 share a set.
	c.Access(0)
	c.Access(4096)
	if !c.Access(0) || !c.Access(4096) {
		t.Error("2-way cache should hold both conflicting lines")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{Size: 128, LineSize: 32, Assoc: 4, MissPenalty: 1})
	// Single set of 4 ways. Fill with lines A,B,C,D then touch A: B is LRU.
	addrs := []uint64{0, 128, 256, 384}
	for _, a := range addrs {
		c.Access(a)
	}
	c.Access(0)   // A most recent
	c.Access(512) // evicts B (line 128)
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Probe(128) {
		t.Error("B should have been evicted as LRU")
	}
	if !c.Probe(256) || !c.Probe(384) || !c.Probe(512) {
		t.Error("C, D, E should be resident")
	}
}

func TestFlushColdStart(t *testing.T) {
	c := dm8k()
	c.Access(64)
	c.Flush()
	if c.Probe(64) {
		t.Error("flushed line should not be resident")
	}
	if c.Access(64) {
		t.Error("access after flush should miss")
	}
	if got := c.Stats().Misses; got != 2 {
		t.Errorf("misses = %d, want 2 (stats survive flush)", got)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := dm8k()
	before := c.Stats()
	if c.Probe(0xdead0) {
		t.Error("probe of empty cache should report miss")
	}
	if c.Stats() != before {
		t.Error("probe must not change statistics")
	}
	c.Access(0xdead0)
	if !c.Probe(0xdead0) {
		t.Error("probe should see resident line")
	}
}

func TestAccessRange(t *testing.T) {
	c := dm8k()
	// 100 bytes starting mid-line spans ceil((4+100)/32) = 4 lines.
	if m := c.AccessRange(28, 100); m != 4 {
		t.Errorf("cold range misses = %d, want 4", m)
	}
	if m := c.AccessRange(28, 100); m != 0 {
		t.Errorf("warm range misses = %d, want 0", m)
	}
	if m := c.AccessRange(0, 0); m != 0 {
		t.Errorf("empty range misses = %d, want 0", m)
	}
	if m := c.AccessRange(0, -5); m != 0 {
		t.Errorf("negative range misses = %d, want 0", m)
	}
}

func TestAccessRangeSingleByte(t *testing.T) {
	c := dm8k()
	if m := c.AccessRange(31, 1); m != 1 {
		t.Errorf("single byte range misses = %d, want 1", m)
	}
	if m := c.AccessRange(32, 1); m != 1 {
		t.Errorf("adjacent line misses = %d, want 1", m)
	}
}

func TestValidatonErrors(t *testing.T) {
	bad := []Config{
		{Size: 8192, LineSize: 0},
		{Size: 8192, LineSize: 33},
		{Size: 0, LineSize: 32},
		{Size: 100, LineSize: 32},
		{Size: 8192, LineSize: 32, Assoc: -1},
		{Size: 8192, LineSize: 32, MissPenalty: -1},
		{Size: 8192, LineSize: 32, Assoc: 3},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	good := Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v should be valid: %v", good, err)
	}
	if good.Lines() != 256 {
		t.Errorf("Lines() = %d, want 256", good.Lines())
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{Size: 7, LineSize: 32})
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, StallCycles: 80}
	b := Stats{Accesses: 10, Hits: 10}
	a.Add(b)
	if a.Accesses != 20 || a.Hits != 16 || a.Misses != 4 {
		t.Errorf("after Add: %+v", a)
	}
}

// Property: hits + misses == accesses, and the number of valid lines never
// exceeds the capacity, across random access streams and geometries.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, sizeSel, lineSel, assocSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lines := []int{16, 32, 64}[int(lineSel)%3]
		assoc := []int{1, 2, 4}[int(assocSel)%3]
		size := []int{1, 2, 8}[int(sizeSel)%3] * 1024 * assoc
		c := New(Config{Size: size, LineSize: lines, Assoc: assoc, MissPenalty: 10})
		for i := 0; i < 2000; i++ {
			c.Access(uint64(rng.Intn(1 << 18)))
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			c.ValidLines() <= c.Config().Lines() &&
			s.StallCycles == s.Misses*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a direct-mapped cache behaves identically to a 1-way
// set-associative cache on any access stream (they are the same machine;
// this pins the fast path against the general path).
func TestDirectMappedEqualsOneWay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build the general-path cache as 2-way with doubled size but force
		// identical set mapping by comparing against two independent runs
		// of the fast path — simpler: compare Access results for assoc=1
		// configured twice (both exercise the same fast path) plus verify
		// against a reference map-of-sets model.
		c := New(Config{Size: 4096, LineSize: 32, Assoc: 1, MissPenalty: 1})
		ref := make(map[uint64]uint64) // set -> resident line
		nsets := uint64(4096 / 32)
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 16))
			line := addr >> 5
			set := line % nsets
			wantHit := ref[set] == line+1
			ref[set] = line + 1
			if c.Access(addr) != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a fully associative LRU cache of N lines, accessed with a
// cyclic stream of exactly N distinct lines, hits forever after the first
// pass; with N+1 distinct lines it misses forever (the classic LRU worst
// case). This pins true-LRU behaviour.
func TestLRUCyclicStreams(t *testing.T) {
	const nlines = 8
	full := func(distinct int) (coldMisses, warmMisses int) {
		c := New(Config{Size: nlines * 32, LineSize: 32, Assoc: nlines, MissPenalty: 1})
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < distinct; i++ {
				hit := c.Access(uint64(i * 32))
				if !hit {
					if pass == 0 {
						coldMisses++
					} else {
						warmMisses++
					}
				}
			}
		}
		return
	}
	if cold, warm := full(nlines); cold != nlines || warm != 0 {
		t.Errorf("N-line cycle: cold=%d warm=%d, want %d/0", cold, warm, nlines)
	}
	if _, warm := full(nlines + 1); warm != 3*(nlines+1) {
		t.Errorf("N+1-line cycle: warm misses = %d, want %d (LRU thrashes)", warm, 3*(nlines+1))
	}
}

func BenchmarkAccessDirectMapped(b *testing.B) {
	c := dm8k()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*32) & 0xffff)
	}
}

func BenchmarkAccessFourWay(b *testing.B) {
	c := New(Config{Size: 8192, LineSize: 32, Assoc: 4, MissPenalty: 20})
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*32) & 0xffff)
	}
}

func TestPrefetchNextHalvesSequentialMisses(t *testing.T) {
	plain := New(Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20})
	pf := New(Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20, PrefetchNext: true})
	// Sequential sweep through 6 KB of cold code.
	plain.AccessRange(0, 6144)
	pf.AccessRange(0, 6144)
	pm, fm := plain.Stats().Misses, pf.Stats().Misses
	if pm != 192 {
		t.Fatalf("plain misses = %d, want 192", pm)
	}
	if fm != 96 {
		t.Errorf("prefetch misses = %d, want 96 (every other line prefetched)", fm)
	}
	if pf.Stats().Prefetches == 0 {
		t.Error("no prefetches recorded")
	}
}

func TestPrefetchDoesNotChargeStalls(t *testing.T) {
	pf := New(Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20, PrefetchNext: true})
	pf.AccessRange(0, 640)
	s := pf.Stats()
	if s.StallCycles != s.Misses*20 {
		t.Errorf("stalls %d != misses %d x 20 (prefetch fills must be free)", s.StallCycles, s.Misses)
	}
}

func TestPrefetchHonorsCapacity(t *testing.T) {
	pf := New(Config{Size: 256, LineSize: 32, Assoc: 8, MissPenalty: 1, PrefetchNext: true})
	for i := 0; i < 100; i++ {
		pf.Access(uint64(i * 32))
	}
	if pf.ValidLines() > pf.Config().Lines() {
		t.Errorf("prefetch overfilled the cache: %d lines", pf.ValidLines())
	}
}

func TestPrefetchAssociativePath(t *testing.T) {
	pf := New(Config{Size: 8192, LineSize: 32, Assoc: 2, MissPenalty: 20, PrefetchNext: true})
	pf.Access(0) // miss, prefetches line 1
	if !pf.Probe(32) {
		t.Error("line 1 should have been prefetched")
	}
	if !pf.Access(32) {
		t.Error("prefetched line should hit")
	}
}

// FuzzAccessRangeDirectMapped holds AccessRange's direct-mapped loop
// equal to referencing the same lines one Access at a time: the same
// misses per range, the same Stats and the same resident tags. Each
// 5-byte record of ops is one range: a 24-bit address and a 16-bit
// length.
func FuzzAccessRangeDirectMapped(f *testing.F) {
	f.Add(uint16(256), uint8(5), uint8(20), []byte{0, 0, 0, 0x17, 0x70, 0, 0x20, 0, 0x17, 0x70, 0, 0, 1, 0, 1})
	f.Add(uint16(1), uint8(0), uint8(1), []byte{1, 2, 3, 0, 9, 1, 2, 3, 0, 9})
	f.Add(uint16(750), uint8(3), uint8(7), []byte{0xff, 0xff, 0xf0, 0xff, 0xff, 0, 0, 0x10, 0, 0})
	f.Fuzz(func(t *testing.T, lines uint16, shift, penalty uint8, ops []byte) {
		if lines == 0 {
			lines = 1
		}
		line := 1 << (shift % 8)
		cfg := Config{Size: int(lines) * line, LineSize: line, MissPenalty: int(penalty)}
		fast, slow := New(cfg), New(cfg)
		for ; len(ops) >= 5; ops = ops[5:] {
			addr := uint64(ops[0])<<16 | uint64(ops[1])<<8 | uint64(ops[2])
			n := int(ops[3])<<8 | int(ops[4])
			want := 0
			if n > 0 {
				for l := addr >> fast.lineShift; l <= (addr+uint64(n)-1)>>fast.lineShift; l++ {
					if !slow.Access(l << slow.lineShift) {
						want++
					}
				}
			}
			if got := fast.AccessRange(addr, n); got != want {
				t.Fatalf("AccessRange(%#x, %d) = %d misses, per-line Access %d", addr, n, got, want)
			}
		}
		if fast.Stats() != slow.Stats() || fast.tick != slow.tick {
			t.Errorf("stats %+v (tick %d), per-line %+v (tick %d)", fast.Stats(), fast.tick, slow.Stats(), slow.tick)
		}
		for i := range fast.tags {
			if fast.valid[i] != slow.valid[i] || fast.valid[i] && fast.tags[i] != slow.tags[i] {
				t.Fatalf("line %d: valid %v tag %#x, per-line valid %v tag %#x", i, fast.valid[i], fast.tags[i], slow.valid[i], slow.tags[i])
			}
		}
	})
}
