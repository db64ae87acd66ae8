package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldlp/internal/cache"
)

func TestClassString(t *testing.T) {
	if Code.String() != "code" || ReadOnly.String() != "read-only" || Mutable.String() != "mutable" {
		t.Error("class names changed")
	}
	if Class(9).String() != "Class(9)" {
		t.Errorf("unknown class renders as %q", Class(9).String())
	}
}

func TestSegmentPlacement(t *testing.T) {
	s := NewSegment("tcp_input", Code, 11872)
	if s.placed {
		t.Error("fresh segment should be unplaced")
	}
	s.SetAddr(0x1000)
	if !s.placed || s.Addr() != 0x1000 {
		t.Errorf("placement failed: placed=%v addr=%#x", s.placed, s.Addr())
	}
}

func TestUnplacedSegmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Addr of unplaced segment should panic")
		}
	}()
	NewSegment("x", Code, 64).Addr()
}

func TestNewSegmentRejectsEmptiness(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size segment should panic")
		}
	}()
	NewSegment("empty", Code, 0)
}

func TestPlaceSequentialIsDenseAndAligned(t *testing.T) {
	l := NewLayout(32)
	a := NewSegment("a", Code, 100) // rounds to 128
	b := NewSegment("b", Code, 32)
	l.PlaceSequential(a, b)
	if a.Addr()%32 != 0 || b.Addr()%32 != 0 {
		t.Error("segments not line aligned")
	}
	if b.Addr() != a.Addr()+128 {
		t.Errorf("b at %#x, want %#x (dense packing)", b.Addr(), a.Addr()+128)
	}
}

// Property: random placements are line-aligned, within the jitter window,
// and never overlap regardless of seed.
func TestPlaceRandomDisjointQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLayout(32)
		segs := make([]*Segment, 8)
		for i := range segs {
			segs[i] = NewSegment("seg", Code, 6144)
		}
		l.PlaceRandom(rng, 8192, segs...)
		for i, s := range segs {
			if s.Addr()%32 != 0 {
				return false
			}
			for j := 0; j < i; j++ {
				lo, hi := segs[j].Addr(), segs[j].Addr()+uint64(segs[j].Size)
				if s.Addr() < hi && s.Addr()+uint64(s.Size) > lo {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPlaceRandomVariesConflictPattern(t *testing.T) {
	// Two different seeds should (almost surely) produce different
	// cache-set offsets for at least one of 8 segments.
	place := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		l := NewLayout(32)
		var offs []uint64
		for i := 0; i < 8; i++ {
			s := NewSegment("s", Code, 64)
			l.PlaceRandom(rng, 8192, s)
			offs = append(offs, s.Addr()%8192)
		}
		return offs
	}
	a, b := place(1), place(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestCPUCycleAccounting(t *testing.T) {
	cpu := New(DefaultConfig())
	seg := NewSegment("layer", Code, 6144)
	seg.SetAddr(0)
	cpu.ExecSegment(seg, 1376)
	// 6144/32 = 192 cold misses at 20 cycles each.
	if got := cpu.StallCycles(); got != 192*20 {
		t.Errorf("stall cycles = %v, want %v", got, 192*20)
	}
	if got := cpu.Cycles(); got != 1376+3840 {
		t.Errorf("total cycles = %v, want %v", got, 1376+3840)
	}
	// Second execution: warm, no stalls.
	cpu.ResetCycles()
	cpu.ExecSegment(seg, 1376)
	if got := cpu.StallCycles(); got != 0 {
		t.Errorf("warm stall cycles = %v, want 0", got)
	}
}

func TestCPUSeconds(t *testing.T) {
	cfg := DefaultConfig()
	cpu := New(cfg)
	cpu.AddIssueCycles(100e6) // one second at 100 MHz
	if got := cpu.Seconds(); got != 1 {
		t.Errorf("Seconds = %v, want 1", got)
	}
}

func TestColdStartFlushes(t *testing.T) {
	cpu := New(DefaultConfig())
	cpu.TouchCode(0, 64)
	cpu.TouchData(0, 64)
	cpu.ColdStart()
	if cpu.Cycles() != 0 {
		t.Error("cycles should reset")
	}
	if m := cpu.TouchCode(0, 64); m != 2 {
		t.Errorf("post-flush code misses = %d, want 2", m)
	}
	if m := cpu.TouchData(0, 64); m != 2 {
		t.Errorf("post-flush data misses = %d, want 2", m)
	}
}

func TestTouchDataChargesDCacheOnly(t *testing.T) {
	cpu := New(DefaultConfig())
	cpu.TouchData(0, 32)
	if cpu.I.Stats().Accesses != 0 {
		t.Error("data touch must not reference the I-cache")
	}
	if cpu.D.Stats().Misses != 1 {
		t.Errorf("d-cache misses = %d, want 1", cpu.D.Stats().Misses)
	}
}

func TestNewPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero clock should panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.ClockHz = 0
	New(cfg)
}

func TestArenaWrapAndAlignment(t *testing.T) {
	a := NewArena(0x100000, 2048, 32)
	first := a.Alloc(552) // rounds to 576
	second := a.Alloc(552)
	if second != first+576 {
		t.Errorf("second = %#x, want %#x", second, first+576)
	}
	third := a.Alloc(552)
	// 3*576 = 1728 <= 2048, fits.
	if third != first+1152 {
		t.Errorf("third = %#x, want %#x", third, first+1152)
	}
	fourth := a.Alloc(552) // 1728+576 = 2304 > 2048: wraps
	if fourth != first {
		t.Errorf("fourth = %#x, want wrap to %#x", fourth, first)
	}
}

func TestArenaOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize allocation should panic")
		}
	}()
	NewArena(0, 1024, 32).Alloc(2048)
}

// Property: arena allocations are always line-aligned, inside the region,
// and never straddle the wrap point.
func TestArenaInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 8192
		a := NewArena(1<<20, size, 32)
		for i := 0; i < 500; i++ {
			n := 1 + rng.Intn(size)
			addr := a.Alloc(n)
			if addr%32 != 0 {
				return false
			}
			if addr < 1<<20 || addr+uint64(n) > (1<<20)+size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConflictingLayersThrashExactlyLikeThePaper(t *testing.T) {
	// Two 6 KB layers in an 8 KB direct-mapped cache: run alternately
	// (conventional), most of each layer's lines are evicted between
	// executions; run back-to-back per layer (blocked), the second pass is
	// free. This is Figure 2/3 in miniature.
	cfg := DefaultConfig()
	mkCPU := func() (*CPU, *Segment, *Segment) {
		cpu := New(cfg)
		l1 := NewSegment("l1", Code, 6144)
		l2 := NewSegment("l2", Code, 6144)
		// Worst-case overlap: both start at set 0.
		l1.SetAddr(0)
		l2.SetAddr(1 << 20) // 1 MB is a multiple of 8 KB: same sets as l1
		return cpu, l1, l2
	}

	cpu, l1, l2 := mkCPU()
	// Conventional: L1 P1, L2 P1, L1 P2, L2 P2.
	for i := 0; i < 2; i++ {
		cpu.ExecSegment(l1, 0)
		cpu.ExecSegment(l2, 0)
	}
	conv := cpu.StallCycles()

	cpu, l1, l2 = mkCPU()
	// Blocked: L1 P1, L1 P2, L2 P1, L2 P2.
	cpu.ExecSegment(l1, 0)
	cpu.ExecSegment(l1, 0)
	cpu.ExecSegment(l2, 0)
	cpu.ExecSegment(l2, 0)
	blocked := cpu.StallCycles()

	if !(blocked < conv/1.5) {
		t.Errorf("blocked stalls %v not substantially below conventional %v", blocked, conv)
	}
}

func BenchmarkExecSegmentWarm(b *testing.B) {
	cpu := New(DefaultConfig())
	seg := NewSegment("layer", Code, 6144)
	seg.SetAddr(0)
	for i := 0; i < b.N; i++ {
		cpu.ExecSegment(seg, 1376)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	want := cache.Config{Size: 8192, LineSize: 32, Assoc: 1, MissPenalty: 20}
	if cfg.ICache != want || cfg.DCache != want {
		t.Errorf("default caches = %+v / %+v, want %+v", cfg.ICache, cfg.DCache, want)
	}
	if cfg.ClockHz != 100e6 {
		t.Errorf("default clock = %v, want 100 MHz", cfg.ClockHz)
	}
}

func TestUnifiedCacheSharesState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unified = true
	cpu := New(cfg)
	if cpu.I != cpu.D {
		t.Fatal("unified config should share one cache")
	}
	// Code and data at the same address: the second reference hits
	// because the unified cache already holds the line.
	cpu.TouchCode(0x100, 32)
	if m := cpu.TouchData(0x100, 32); m != 0 {
		t.Errorf("data touch after code touch missed %d times in a unified cache", m)
	}
	// And code/data contend for the same capacity: filling 16KB of data
	// in a unified 8KB cache must evict the code.
	cpu.TouchData(0x100000, 16384)
	if m := cpu.TouchCode(0x100, 32); m != 1 {
		t.Errorf("code should have been evicted by data in a unified cache (misses=%d)", m)
	}
	cpu.ColdStart()
	if cpu.Cycles() != 0 {
		t.Error("cold start on unified cache failed")
	}
}

func TestSplitCachesDoNotContend(t *testing.T) {
	cpu := New(DefaultConfig())
	cpu.TouchCode(0x100, 32)
	cpu.TouchData(0x100000, 16384)
	if m := cpu.TouchCode(0x100, 32); m != 0 {
		t.Errorf("split I-cache evicted by data traffic (misses=%d)", m)
	}
}
