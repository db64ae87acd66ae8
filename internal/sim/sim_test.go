package sim

import (
	"math"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/traffic"
)

func run(t *testing.T, d core.Discipline, rate float64, mutate func(*Config)) Result {
	t.Helper()
	cfg := DefaultConfig(d)
	cfg.Duration = 0.5
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg).Run(traffic.NewPoisson(rate, 552, 42))
}

func TestConventionalInstructionMissesMatchAnalyticModel(t *testing.T) {
	// Five 6 KB layers through an 8 KB direct-mapped cache, one message at
	// a time: every layer's 192 lines miss on every message once steady
	// state is reached — 960 instruction misses per message, the flat
	// conventional curve in Figure 5.
	res := run(t, core.Conventional, 2000, nil)
	if math.Abs(res.IMissesPerMsg-960) > 15 {
		t.Errorf("conventional I-misses/msg = %v, analytic model says ≈960", res.IMissesPerMsg)
	}
}

func TestLDLPMissesFallWithLoad(t *testing.T) {
	low := run(t, core.LDLP, 1000, nil)
	high := run(t, core.LDLP, 9000, nil)
	if !(high.IMissesPerMsg < low.IMissesPerMsg/3) {
		t.Errorf("LDLP I-misses should fall sharply with load: %v at 1k, %v at 9k",
			low.IMissesPerMsg, high.IMissesPerMsg)
	}
	// Data misses rise slightly with batching (Figure 5's caption).
	if !(high.DMissesPerMsg > low.DMissesPerMsg) {
		t.Errorf("LDLP D-misses should rise with batching: %v at 1k, %v at 9k",
			low.DMissesPerMsg, high.DMissesPerMsg)
	}
	// But the instruction-miss reduction dominates the data-miss increase.
	if (low.IMissesPerMsg - high.IMissesPerMsg) < 10*(high.DMissesPerMsg-low.DMissesPerMsg) {
		t.Errorf("I-miss reduction (%v) should dwarf D-miss increase (%v)",
			low.IMissesPerMsg-high.IMissesPerMsg, high.DMissesPerMsg-low.DMissesPerMsg)
	}
}

func TestLDLPBeatsConventionalUnderLoad(t *testing.T) {
	conv := run(t, core.Conventional, 6000, nil)
	ldlp := run(t, core.LDLP, 6000, nil)
	if !(ldlp.Latency.Mean() < conv.Latency.Mean()/10) {
		t.Errorf("at 6000 msg/s LDLP latency %v should be far below conventional %v",
			ldlp.Latency.Mean(), conv.Latency.Mean())
	}
	if conv.Dropped == 0 {
		t.Error("conventional at 6000 msg/s should overflow the 500-packet buffer")
	}
	if ldlp.Dropped != 0 {
		t.Errorf("LDLP at 6000 msg/s dropped %d packets, want 0", ldlp.Dropped)
	}
}

func TestLDLPLowLoadDegeneratesToConventional(t *testing.T) {
	// Under light load batches are ~1 and the two disciplines should be
	// within queueing-overhead distance of each other.
	conv := run(t, core.Conventional, 500, nil)
	ldlp := run(t, core.LDLP, 500, nil)
	if ldlp.MeanBatch > 1.2 {
		t.Errorf("mean batch at 500 msg/s = %v, want ≈1", ldlp.MeanBatch)
	}
	ratio := ldlp.Latency.Mean() / conv.Latency.Mean()
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("latency ratio at light load = %v, want ≈1", ratio)
	}
}

func TestBatchCapOneMatchesConventionalThroughput(t *testing.T) {
	// LDLP with batch cap 1 does strictly more work (queue ops) than
	// conventional, so its latency must be >= conventional's while the
	// miss profile matches.
	conv := run(t, core.Conventional, 2000, nil)
	capped := run(t, core.LDLP, 2000, func(c *Config) { c.BatchCap = 1 })
	if math.Abs(capped.IMissesPerMsg-conv.IMissesPerMsg) > 20 {
		t.Errorf("cap-1 LDLP I-misses %v vs conventional %v, want ≈equal",
			capped.IMissesPerMsg, conv.IMissesPerMsg)
	}
	if capped.Latency.Mean() < conv.Latency.Mean()*0.95 {
		t.Errorf("cap-1 LDLP latency %v unexpectedly beats conventional %v",
			capped.Latency.Mean(), conv.Latency.Mean())
	}
}

func TestBatchBoundedByDataCache(t *testing.T) {
	// 8 KB D-cache minus 5*256 layer data over 576-byte rounded buffers:
	// at most 12 messages per batch; the cap rule must keep MeanBatch at
	// or under that bound even at overload.
	res := run(t, core.LDLP, 12000, nil)
	budget := 8192 - 5*256
	maxBatch := float64(budget / 576)
	if res.MeanBatch > maxBatch+0.01 {
		t.Errorf("mean batch %v exceeds the D-cache bound %v", res.MeanBatch, maxBatch)
	}
}

func TestILPReducesDataMissesNotInstructionMisses(t *testing.T) {
	conv := run(t, core.Conventional, 2000, nil)
	ilp := run(t, core.ILP, 2000, nil)
	if !(ilp.DMissesPerMsg < conv.DMissesPerMsg) {
		t.Errorf("ILP D-misses %v should be below conventional %v",
			ilp.DMissesPerMsg, conv.DMissesPerMsg)
	}
	if math.Abs(ilp.IMissesPerMsg-conv.IMissesPerMsg) > 20 {
		t.Errorf("ILP I-misses %v should match conventional %v (outer loop unchanged)",
			ilp.IMissesPerMsg, conv.IMissesPerMsg)
	}
	// §1's point: for small messages ILP's data savings barely move the
	// needle, because code dominates.
	convTotal := conv.IMissesPerMsg + conv.DMissesPerMsg
	ilpTotal := ilp.IMissesPerMsg + ilp.DMissesPerMsg
	if (convTotal-ilpTotal)/convTotal > 0.10 {
		t.Errorf("ILP total-miss saving = %.1f%%, should be marginal for small messages",
			100*(convTotal-ilpTotal)/convTotal)
	}
}

func TestDropTailAt500(t *testing.T) {
	res := run(t, core.Conventional, 10000, nil)
	if res.Dropped == 0 {
		t.Fatal("overload must drop packets")
	}
	if res.Offered != res.Processed+res.Dropped {
		// Processed counts in-flight completions after the horizon too;
		// everything admitted is eventually processed.
		t.Errorf("conservation: offered %d != processed %d + dropped %d",
			res.Offered, res.Processed, res.Dropped)
	}
}

func TestConservationNoLoss(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.ILP, core.LDLP} {
		res := run(t, d, 3000, nil)
		if res.Dropped != 0 && d != core.Conventional {
			t.Errorf("%v at 3000 msg/s dropped %d", d, res.Dropped)
		}
		if res.Processed+res.Dropped != res.Offered {
			t.Errorf("%v: offered %d != processed %d + dropped %d",
				d, res.Offered, res.Processed, res.Dropped)
		}
		// The sweeps merge these across seeds; a run that carried none
		// would merge silently into empty distributions.
		if res.BatchHist.Count == 0 || int(res.LatencyHist.Count) != res.Processed {
			t.Errorf("%v: sim result carries no telemetry histograms (batch %d, latency %d of %d)",
				d, res.BatchHist.Count, res.LatencyHist.Count, res.Processed)
		}
	}
}

func TestLatenciesPositiveAndOrdered(t *testing.T) {
	res := run(t, core.LDLP, 4000, nil)
	if res.Latency.Min() <= 0 {
		t.Errorf("min latency %v, want positive", res.Latency.Min())
	}
	if res.P99Latency < res.Latency.Mean() {
		t.Errorf("p99 %v below mean %v", res.P99Latency, res.Latency.Mean())
	}
	if res.Latency.Max() < res.P99Latency {
		t.Errorf("max %v below p99 %v", res.Latency.Max(), res.P99Latency)
	}
	// Minimum service time: 5 layers at ~(1652+queue+stalls) cycles each,
	// 100 MHz. Even fully warm that is > 80 µs.
	if res.Latency.Min() < 80e-6 {
		t.Errorf("min latency %v below physical service floor", res.Latency.Min())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := DefaultConfig(core.LDLP)
	cfg.Duration = 0.2
	a := New(cfg).Run(traffic.NewPoisson(3000, 552, 7))
	b := New(cfg).Run(traffic.NewPoisson(3000, 552, 7))
	if a.Processed != b.Processed || a.Latency.Mean() != b.Latency.Mean() {
		t.Errorf("same seeds should reproduce exactly: %+v vs %+v", a.Processed, b.Processed)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.LayerCode = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.BufferLimit = 0 },
		func(c *Config) { c.IssueFixed = -1 },
		func(c *Config) { c.GroupSize = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(core.LDLP)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
	if err := DefaultConfig(core.LDLP).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestOversizeMessageStillProcessed(t *testing.T) {
	// A message bigger than the D-cache must still form a batch of one,
	// not wedge the batch-fitting loop.
	cfg := DefaultConfig(core.LDLP)
	cfg.Duration = 0.05
	res := New(cfg).Run(traffic.NewDeterministic(100, 10000))
	if res.Processed == 0 {
		t.Fatal("oversize messages were never processed")
	}
}

func TestSweepTablesComeOutOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := SweepOptions{Runs: 2, Duration: 0.1, MessageSize: 552, BaseSeed: 1, Parallel: true}
	f5 := Figure5(opts)
	if len(f5.Points) != len(Figure5Rates) {
		t.Errorf("figure 5 rows = %d, want %d", len(f5.Points), len(Figure5Rates))
	}
	f6 := Figure6(opts)
	var convLow, convHigh float64
	for _, p := range f6.Points {
		if p.X == 1000 {
			convLow = p.Y["conv"]
		}
		if p.X == 10000 {
			convHigh = p.Y["conv"]
		}
	}
	if !(convHigh > convLow) {
		t.Errorf("conventional latency should grow with rate: %v -> %v", convLow, convHigh)
	}
}

func TestFigure7TraceDrivenShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	// Self-similar burstiness needs a longer window to express itself
	// than the Poisson sweeps do.
	opts := SweepOptions{Runs: 2, Duration: 2, MessageSize: 552, BaseSeed: 3, Parallel: true}
	tab := Figure7(opts)
	byClock := map[float64]map[string]float64{}
	for _, p := range tab.Points {
		byClock[p.X] = p.Y
	}
	// Latency increases as the clock falls, and at low clocks LDLP wins
	// big (the conventional stack saturates below ~40 MHz).
	if !(byClock[10]["conv"] > byClock[80]["conv"]) {
		t.Error("conventional latency should grow as the clock falls")
	}
	if !(byClock[20]["ldlp"] < byClock[20]["conv"]/3) {
		t.Errorf("at 20 MHz LDLP (%v) should be far below conventional (%v)",
			byClock[20]["ldlp"], byClock[20]["conv"])
	}
}

func TestAblationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := SweepOptions{Runs: 2, Duration: 0.1, MessageSize: 552, BaseSeed: 1, Parallel: true}
	caps := BatchCapAblation(opts, 8000, []int{1, 4, 14})
	var lat1, lat14 float64
	for _, p := range caps.Points {
		if p.X == 1 {
			lat1 = p.Y["latency"]
		}
		if p.X == 14 {
			lat14 = p.Y["latency"]
		}
	}
	if !(lat14 < lat1) {
		t.Errorf("batching should help at 8000 msg/s: cap1 %v vs cap14 %v", lat1, lat14)
	}

	qc := QueueCostAblation(opts, 6000, []float64{0, 40, 200})
	if len(qc.Points) != 3 {
		t.Errorf("queue-cost rows = %d", len(qc.Points))
	}

	cs := CacheSizeAblation(opts, 3000, []int{8192, 65536})
	byKB := map[float64]map[string]float64{}
	for _, p := range cs.Points {
		byKB[p.X] = p.Y
	}
	// §6: with a 64 KB cache the whole 30 KB stack fits; conventional
	// misses collapse (residual misses come from random-placement
	// conflicts, which a good layout would remove entirely).
	if !(byKB[64]["conv-I"] < byKB[8]["conv-I"]/3) {
		t.Errorf("64 KB cache should collapse conventional misses: %v vs %v",
			byKB[64]["conv-I"], byKB[8]["conv-I"])
	}

	da := DisciplineAblation(opts, 4000)
	if len(da.Points) != 3 {
		t.Errorf("discipline rows = %d", len(da.Points))
	}

	// Per-layer queues are right for the paper's machine and cost only
	// their cycles on one whose cache holds the stack.
	lg := LayerGroupAblation(opts, 3000, []int{1, 5})
	perLayer, oneGroup := lg.Points[0].Y, lg.Points[1].Y
	if !(perLayer["8KB-I"] < oneGroup["8KB-I"] && perLayer["8KB-latency"] < oneGroup["8KB-latency"]) {
		t.Errorf("8 KB cache: per-layer queues %v should beat one group %v", perLayer, oneGroup)
	}
	if !(oneGroup["native-I"] == perLayer["native-I"] && oneGroup["native-I"] < 5 && oneGroup["native-latency"] < perLayer["native-latency"]) {
		t.Errorf("native-shaped machine: one group %v should take only the cold misses per-layer queues %v take, and be faster", oneGroup, perLayer)
	}
}

// TestGroupSizeQueuesPerGroup: the simulator takes the engine's own
// grouping. Group size 0 and 1 are the paper's schedule, the same run
// to the last digit; wider groups pay one queue op per group per message
// and, on the paper's 8 KB cache, take more instruction misses; one
// group over the whole stack is the conventional stack plus a queue op.
func TestGroupSizeQueuesPerGroup(t *testing.T) {
	atSize := func(g int) (Result, core.Stats) {
		cfg := DefaultConfig(core.LDLP)
		cfg.Duration = 0.3
		cfg.GroupSize = g
		s := New(cfg)
		return s.Run(traffic.NewPoisson(5000, 552, 42)), s.stack.Stats()
	}
	paper, paperStats := atSize(1)
	zero, _ := atSize(0)
	if zero.Latency != paper.Latency || zero.IMissesPerMsg != paper.IMissesPerMsg || zero.Processed != paper.Processed {
		t.Errorf("GroupSize 0 differs from 1: %+v vs %+v", zero, paper)
	}
	if want := int64(paper.Processed) * 5; paperStats.QueueOps != want {
		t.Errorf("per-layer queues: %d queue ops for %d messages, want %d", paperStats.QueueOps, paper.Processed, want)
	}
	for g, groups := range map[int]int64{2: 3, 3: 2, 5: 1} {
		res, st := atSize(g)
		if want := int64(res.Processed) * groups; st.QueueOps != want || st.Processed != int64(res.Processed)*5 {
			t.Errorf("group size %d: %d queue ops and %d handler runs for %d messages, want %d and %d",
				g, st.QueueOps, st.Processed, res.Processed, want, res.Processed*5)
		}
		if !(res.IMissesPerMsg > paper.IMissesPerMsg) {
			t.Errorf("group size %d: %v I-misses/msg, want more than the per-layer schedule's %v on an 8 KB cache",
				g, res.IMissesPerMsg, paper.IMissesPerMsg)
		}
	}
	conv := run(t, core.Conventional, 2000, nil)
	one := run(t, core.LDLP, 2000, func(c *Config) { c.GroupSize = 5 })
	if math.Abs(one.IMissesPerMsg-conv.IMissesPerMsg) > 1 {
		t.Errorf("one group: %v I-misses/msg, conventional %v", one.IMissesPerMsg, conv.IMissesPerMsg)
	}
}

func BenchmarkSimSecondLDLP(b *testing.B) {
	cfg := DefaultConfig(core.LDLP)
	cfg.Duration = 0.1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		New(cfg).Run(traffic.NewPoisson(8000, 552, int64(i)))
	}
}

func TestPrefetchAblationNarrowsButKeepsTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := SweepOptions{Runs: 2, Duration: 0.1, MessageSize: 552, BaseSeed: 1, Parallel: true}
	tab := PrefetchAblation(opts, 3000)
	var off, on map[string]float64
	for _, p := range tab.Points {
		if p.X == 0 {
			off = p.Y
		} else {
			on = p.Y
		}
	}
	// Prefetch must cut conventional instruction misses roughly in half
	// (sequential 6KB layer sweeps).
	if !(on["conv-I"] < 0.65*off["conv-I"]) {
		t.Errorf("prefetch conv-I %v vs %v: want a big cut", on["conv-I"], off["conv-I"])
	}
	// And LDLP still wins with prefetch on.
	if !(on["ldlp-latency"] < on["conv-latency"]) {
		t.Errorf("with prefetch, LDLP %v should still beat conventional %v",
			on["ldlp-latency"], on["conv-latency"])
	}
}

func TestValueAddedLayerGrowsLDLPAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := SweepOptions{Runs: 2, Duration: 0.15, MessageSize: 552, BaseSeed: 1, Parallel: true}
	tab := ValueAddedAblation(opts, 2500, 12288)
	var base, grown map[string]float64
	for _, p := range tab.Points {
		if p.X == 5 {
			base = p.Y
		} else {
			grown = p.Y
		}
	}
	if !(grown["ratio"] > base["ratio"]) {
		t.Errorf("value-added layer should grow the conv/ldlp ratio: %v -> %v",
			base["ratio"], grown["ratio"])
	}
}

func TestUnifiedCacheKeepsTheResult(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	// Figure 4's caption: the paper's conclusion holds for unified caches.
	opts := SweepOptions{Runs: 2, Duration: 0.15, MessageSize: 552, BaseSeed: 2, Parallel: true}
	tab := UnifiedCacheAblation(opts, 5000)
	for _, p := range tab.Points {
		if !(p.Y["ratio"] > 3) {
			t.Errorf("unified=%v: conv/ldlp ratio = %v, want LDLP clearly ahead", p.X == 1, p.Y["ratio"])
		}
	}
}

func TestSimMatchesMD1QueueingTheory(t *testing.T) {
	// The simulator should agree with analytic queueing theory where
	// theory applies: conventional processing has near-deterministic
	// service (same working-set sweep per message), so with Poisson
	// arrivals the system is M/D/1 and the mean sojourn time is
	//     W = S * (1 + rho/(2*(1-rho))).
	// This is an end-to-end validation of the event loop's time
	// accounting, independent of the paper's numbers.
	const rate = 2000.0
	cfg := DefaultConfig(core.Conventional)
	cfg.Duration = 2
	res := New(cfg).Run(traffic.NewPoisson(rate, 552, 99))

	s := res.BusyFrac * cfg.Duration / float64(res.Processed) // service time
	rho := s * rate
	if rho >= 1 {
		t.Fatalf("utilization %.2f too high for the M/D/1 check", rho)
	}
	analytic := s * (1 + rho/(2*(1-rho)))
	got := res.Latency.Mean()
	if math.Abs(got-analytic) > 0.15*analytic {
		t.Errorf("mean latency %.1fµs vs M/D/1 prediction %.1fµs (S=%.1fµs, rho=%.2f)",
			got*1e6, analytic*1e6, s*1e6, rho)
	}
}

func TestLatencyQuantilesOrdered(t *testing.T) {
	res := run(t, core.LDLP, 7000, nil)
	if !(res.P50Latency <= res.P90Latency && res.P90Latency <= res.P99Latency) {
		t.Errorf("quantiles out of order: p50=%v p90=%v p99=%v",
			res.P50Latency, res.P90Latency, res.P99Latency)
	}
	if res.P50Latency <= 0 {
		t.Error("p50 should be positive")
	}
}

// Property: at overload, LDLP's processed count is at least conventional's
// for any placement seed (the throughput claim, seed-robust).
func TestLDLPThroughputDominatesQuick(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		mk := func(d core.Discipline) Result {
			cfg := DefaultConfig(d)
			cfg.Duration = 0.2
			cfg.Seed = seed
			return New(cfg).Run(traffic.NewPoisson(9000, 552, seed+50))
		}
		conv, ldlp := mk(core.Conventional), mk(core.LDLP)
		if ldlp.Processed < conv.Processed {
			t.Errorf("seed %d: LDLP processed %d < conventional %d",
				seed, ldlp.Processed, conv.Processed)
		}
	}
}

func TestRateScalingDualOfClockScaling(t *testing.T) {
	// Figure 7 varies the clock because the trace rate is fixed; scaling
	// the trace instead is the dual experiment. At matched utilization
	// (2x rate on a 2x clock) latency in CYCLES is invariant, so latency
	// in seconds halves.
	base := traffic.Take(traffic.NewSelfSimilar(traffic.DefaultSelfSimilar(800, 17)), 2, 0)

	run := func(arrivals []traffic.Arrival, clock float64) Result {
		cfg := DefaultConfig(core.LDLP)
		cfg.Machine.ClockHz = clock
		cfg.Duration = 2
		return New(cfg).Run(traffic.NewTrace(arrivals))
	}
	slow := run(base, 50e6)
	fast := run(traffic.ScaleRate(base, 2), 100e6)
	// Same messages, same per-message cycles, double the clock: latency
	// in seconds should be half, within simulation noise.
	ratio := fast.Latency.Mean() / slow.Latency.Mean()
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("latency ratio at 2x rate / 2x clock = %.3f, want ≈0.5", ratio)
	}
	if fast.Processed != slow.Processed*1 && fast.Processed < slow.Processed {
		t.Errorf("processed differ: %d vs %d", fast.Processed, slow.Processed)
	}
}
