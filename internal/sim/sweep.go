package sim

import (
	"runtime"
	"sync"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/stats"
	"ldlp/internal/traffic"
)

// SweepOptions controls how the figure sweeps are run. The paper averages
// 100 one-second runs per point; tests and quick looks use fewer.
type SweepOptions struct {
	// Runs is the number of independent (placement, traffic) seeds
	// averaged per point.
	Runs int
	// Duration is the simulated seconds per run.
	Duration float64
	// MessageSize is the fixed message size for the Poisson figures
	// (552 in the paper).
	MessageSize int
	// BaseSeed offsets all seeds, for reproducibility.
	BaseSeed int64
	// Parallel enables running seeds on all cores.
	Parallel bool
	// Faults, when non-nil and enabled, impairs every run's arrival
	// stream with a seeded injector (seed derived from the run seed), so
	// the figure sweeps rerun under link faults: loss and corruption
	// remove messages before the stack sees them, duplication doubles
	// them, delay shifts them.
	Faults *faults.Config
}

// PaperSweep reproduces the published methodology: 100 runs of 1 second
// each, 552-byte messages.
func PaperSweep() SweepOptions {
	return SweepOptions{Runs: 100, Duration: 1, MessageSize: 552, BaseSeed: 1, Parallel: true}
}

// QuickSweep is a cheap variant for tests and smoke runs.
func QuickSweep() SweepOptions {
	return SweepOptions{Runs: 5, Duration: 0.3, MessageSize: 552, BaseSeed: 1, Parallel: true}
}

// averageRuns runs cfg over opts.Runs seeds with sources built by mkSrc
// and averages the scalar results.
func averageRuns(cfg Config, opts SweepOptions, mkSrc func(seed int64) traffic.Source) Result {
	results := make([]Result, opts.Runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel(opts))
	for r := 0; r < opts.Runs; r++ {
		r := r
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := cfg
			c.Duration = opts.Duration
			c.Seed = opts.BaseSeed + int64(r)*7919
			src := mkSrc(c.Seed + 104729)
			var faulted *FaultedSource
			if opts.Faults != nil && opts.Faults.Enabled() {
				faulted = NewFaultedSource(src, faults.New(*opts.Faults, c.Seed*31+11))
				src = faulted
			}
			results[r] = New(c).Run(src)
			if faulted != nil {
				s := faulted.Stats()
				results[r].LinkDropped = int(s.Dropped + s.Corrupted)
			}
		}()
	}
	wg.Wait()

	var agg Result
	for _, res := range results {
		agg.Offered += res.Offered
		agg.Processed += res.Processed
		agg.Dropped += res.Dropped
		agg.LinkDropped += res.LinkDropped
		agg.Latency.Merge(&res.Latency)
		agg.P99Latency += res.P99Latency
		agg.IMissesPerMsg += res.IMissesPerMsg
		agg.DMissesPerMsg += res.DMissesPerMsg
		agg.MeanBatch += res.MeanBatch
		agg.Throughput += res.Throughput
		agg.BusyFrac += res.BusyFrac
		agg.BatchHist.Merge(res.BatchHist)
		agg.LatencyHist.Merge(res.LatencyHist)
	}
	n := float64(opts.Runs)
	agg.P99Latency /= n
	agg.IMissesPerMsg /= n
	agg.DMissesPerMsg /= n
	agg.MeanBatch /= n
	agg.Throughput /= n
	agg.BusyFrac /= n
	return agg
}

func maxParallel(opts SweepOptions) int {
	if !opts.Parallel {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Figure5Rates are the arrival rates the paper sweeps (msgs/sec).
var Figure5Rates = []float64{500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 8500, 9000, 9500, 10000}

// Figure5 regenerates "cache misses per message vs arrival rate" for the
// conventional and LDLP disciplines, instruction and data misses
// separately — four series, Poisson arrivals.
func Figure5(opts SweepOptions) *stats.Table {
	tab := stats.NewTable(
		"Figure 5: cache misses per message vs arrival rate (Poisson)",
		"rate", "conv-I", "conv-D", "ldlp-I", "ldlp-D")
	for _, rate := range Figure5Rates {
		rate := rate
		conv := averageRuns(DefaultConfig(core.Conventional), opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		ldlp := averageRuns(DefaultConfig(core.LDLP), opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		tab.Add(rate, conv.IMissesPerMsg, conv.DMissesPerMsg, ldlp.IMissesPerMsg, ldlp.DMissesPerMsg)
	}
	return tab
}

// Figure6 regenerates "latency vs arrival rate" (mean latency in seconds)
// for the conventional and LDLP disciplines under Poisson arrivals.
func Figure6(opts SweepOptions) *stats.Table {
	tab := stats.NewTable(
		"Figure 6: latency vs arrival rate (Poisson)",
		"rate", "conv", "ldlp", "conv-drop", "ldlp-drop")
	for _, rate := range Figure5Rates {
		rate := rate
		conv := averageRuns(DefaultConfig(core.Conventional), opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		ldlp := averageRuns(DefaultConfig(core.LDLP), opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		tab.Add(rate, conv.Latency.Mean(), ldlp.Latency.Mean(),
			dropFrac(conv), dropFrac(ldlp))
	}
	return tab
}

func dropFrac(r Result) float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// FigureLossRates are the Bernoulli link-loss probabilities the loss
// sweep walks (0 is the clean baseline).
var FigureLossRates = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}

// FigureLoss reruns the Figure-6 latency comparison at one fixed
// arrival rate while sweeping link loss, per discipline. Loss thins the
// arrival stream, so conventional latency *improves* with loss while
// LDLP loses batch depth — the interesting question the sweep answers
// is whether LDLP's advantage survives an imperfect link.
func FigureLoss(opts SweepOptions, rate float64, losses []float64) *stats.Table {
	if losses == nil {
		losses = FigureLossRates
	}
	tab := stats.NewTable(
		"Latency vs link loss (Poisson arrivals, fixed rate)",
		"loss", "conv", "ldlp", "conv-linkdrop", "ldlp-linkdrop")
	for _, p := range losses {
		o := opts
		if p > 0 {
			cfg := faults.Config{Loss: p}
			o.Faults = &cfg
		}
		mk := func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		}
		conv := averageRuns(DefaultConfig(core.Conventional), o, mk)
		ldlp := averageRuns(DefaultConfig(core.LDLP), o, mk)
		tab.Add(p, conv.Latency.Mean(), ldlp.Latency.Mean(),
			float64(conv.LinkDropped), float64(ldlp.LinkDropped))
	}
	return tab
}

// Figure7Clocks are the CPU clock rates the paper sweeps (Hz).
var Figure7Clocks = []float64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6, 80e6}

// Figure7Rate is the aggregate arrival rate used for the trace-driven
// sweep. The Bellcore trace's rate is fixed; the paper varies the CPU
// clock instead. 800 pkts/s mean (with heavy-tailed bursts far above it)
// makes the conventional stack saturate below roughly 40 MHz while LDLP
// batches its way through — the published crossover.
const Figure7Rate = 800

// Figure7 regenerates "latency vs CPU clock" driven by self-similar
// Ethernet-like traffic (sizes from the empirical mix, heavy-tailed
// bursts).
func Figure7(opts SweepOptions) *stats.Table {
	tab := stats.NewTable(
		"Figure 7: latency vs CPU clock (self-similar Ethernet traffic)",
		"MHz", "conv", "ldlp", "conv-drop", "ldlp-drop")
	for _, clock := range Figure7Clocks {
		clock := clock
		mk := func(seed int64) traffic.Source {
			return traffic.NewSelfSimilar(traffic.DefaultSelfSimilar(Figure7Rate, seed))
		}
		convCfg := DefaultConfig(core.Conventional)
		convCfg.Machine.ClockHz = clock
		ldlpCfg := DefaultConfig(core.LDLP)
		ldlpCfg.Machine.ClockHz = clock
		conv := averageRuns(convCfg, opts, mk)
		ldlp := averageRuns(ldlpCfg, opts, mk)
		tab.Add(clock/1e6, conv.Latency.Mean(), ldlp.Latency.Mean(),
			dropFrac(conv), dropFrac(ldlp))
	}
	return tab
}

// BatchCapAblation sweeps the LDLP batch cap at a fixed arrival rate —
// the design knob behind Figure 5's flattening beyond 8500 msgs/sec.
func BatchCapAblation(opts SweepOptions, rate float64, caps []int) *stats.Table {
	tab := stats.NewTable("Ablation: LDLP batch cap", "cap", "latency", "i-misses", "throughput")
	for _, cap := range caps {
		cap := cap
		cfg := DefaultConfig(core.LDLP)
		cfg.BatchCap = cap
		res := averageRuns(cfg, opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		tab.Add(float64(cap), res.Latency.Mean(), res.IMissesPerMsg, res.Throughput)
	}
	return tab
}

// QueueCostAblation sweeps the per-layer enqueue/dequeue cost (§3.2
// estimates ~40 instructions) to show LDLP's win survives realistic
// queueing overheads.
func QueueCostAblation(opts SweepOptions, rate float64, costs []float64) *stats.Table {
	tab := stats.NewTable("Ablation: queue op cost", "cycles", "latency", "throughput")
	for _, qc := range costs {
		qc := qc
		cfg := DefaultConfig(core.LDLP)
		cfg.QueueOpCycles = qc
		res := averageRuns(cfg, opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		tab.Add(qc, res.Latency.Mean(), res.Throughput)
	}
	return tab
}

// CacheSizeAblation sweeps the primary cache size (§6 asks whether larger
// caches make LDLP irrelevant). Both I and D caches scale together.
func CacheSizeAblation(opts SweepOptions, rate float64, sizes []int) *stats.Table {
	tab := stats.NewTable("Ablation: cache size", "KB", "conv-latency", "ldlp-latency", "conv-I", "ldlp-I")
	for _, size := range sizes {
		size := size
		mk := func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		}
		convCfg := DefaultConfig(core.Conventional)
		convCfg.Machine.ICache.Size = size
		convCfg.Machine.DCache.Size = size
		ldlpCfg := DefaultConfig(core.LDLP)
		ldlpCfg.Machine.ICache.Size = size
		ldlpCfg.Machine.DCache.Size = size
		conv := averageRuns(convCfg, opts, mk)
		ldlp := averageRuns(ldlpCfg, opts, mk)
		tab.Add(float64(size)/1024, conv.Latency.Mean(), ldlp.Latency.Mean(),
			conv.IMissesPerMsg, ldlp.IMissesPerMsg)
	}
	return tab
}

// LayerGroupAblation sweeps the LDLP group size — a queue between
// groups of g layers instead of between every pair — on three machines:
// the paper's (8 KB direct-mapped caches, 6 KB layers), the same stack
// with four times the cache, and one shaped like the host this repo runs
// on (32 KB 8-way caches, 3 KB layers: a 15 KB receive path). On the
// first two any group wider than one layer gives LDLP's misses back —
// two 6 KB layers overflow 8 KB, and five placed at random in a
// direct-mapped 32 KB still conflict — so the paper's per-layer queues
// are right for its machine. On the third nothing misses at any g, and
// a queue buys only its 40 cycles. The last group size should be the
// stack depth: one group, the conventional schedule (CacheSizeAblation
// has its numbers).
func LayerGroupAblation(opts SweepOptions, rate float64, groups []int) *stats.Table {
	tab := stats.NewTable("Ablation: LDLP layer group size", "layers/group",
		"8KB-latency", "8KB-I", "32KB-latency", "32KB-I", "native-latency", "native-I")
	for _, g := range groups {
		var row []float64
		for _, m := range []struct{ size, assoc, code int }{{8192, 1, 6144}, {32768, 1, 6144}, {32768, 8, 3072}} {
			cfg := DefaultConfig(core.LDLP)
			cfg.GroupSize = g
			cfg.LayerCode = m.code
			cfg.Machine.ICache.Size, cfg.Machine.ICache.Assoc = m.size, m.assoc
			cfg.Machine.DCache.Size, cfg.Machine.DCache.Assoc = m.size, m.assoc
			res := averageRuns(cfg, opts, func(seed int64) traffic.Source {
				return traffic.NewPoisson(rate, opts.MessageSize, seed)
			})
			row = append(row, res.Latency.Mean(), res.IMissesPerMsg)
		}
		tab.Add(float64(g), row...)
	}
	return tab
}

// DisciplineAblation compares conventional, ILP and LDLP at one rate.
func DisciplineAblation(opts SweepOptions, rate float64) *stats.Table {
	tab := stats.NewTable("Ablation: discipline", "discipline", "latency", "i-misses", "d-misses", "throughput")
	for i, d := range []core.Discipline{core.Conventional, core.ILP, core.LDLP} {
		res := averageRuns(DefaultConfig(d), opts, func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		})
		tab.Add(float64(i), res.Latency.Mean(), res.IMissesPerMsg, res.DMissesPerMsg, res.Throughput)
	}
	return tab
}

// PrefetchAblation compares the disciplines with and without next-line
// instruction prefetch (§1.2 notes some processors prefetch from the
// second-level cache to hide miss cost). Prefetch helps the conventional
// stack's long sequential code runs most, so it narrows — but does not
// close — LDLP's advantage.
func PrefetchAblation(opts SweepOptions, rate float64) *stats.Table {
	tab := stats.NewTable("Ablation: next-line I-prefetch", "prefetch",
		"conv-latency", "ldlp-latency", "conv-I", "ldlp-I")
	for i, pf := range []bool{false, true} {
		mk := func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		}
		convCfg := DefaultConfig(core.Conventional)
		convCfg.Machine.ICache.PrefetchNext = pf
		ldlpCfg := DefaultConfig(core.LDLP)
		ldlpCfg.Machine.ICache.PrefetchNext = pf
		conv := averageRuns(convCfg, opts, mk)
		ldlp := averageRuns(ldlpCfg, opts, mk)
		tab.Add(float64(i), conv.Latency.Mean(), ldlp.Latency.Mean(),
			conv.IMissesPerMsg, ldlp.IMissesPerMsg)
	}
	return tab
}

// ValueAddedAblation models §6's forward look: "value-added layers
// implementing services such as encryption may become more common and
// drive working set sizes up". It grows the stack from 5 to 6 layers
// where the extra layer carries a crypto-sized code working set, and
// reports how each discipline's latency degrades. LDLP's advantage grows
// with the working set.
func ValueAddedAblation(opts SweepOptions, rate float64, extraCode int) *stats.Table {
	tab := stats.NewTable("Ablation: value-added (crypto) layer", "layers",
		"conv-latency", "ldlp-latency", "ratio")
	for _, layers := range []int{5, 6} {
		mk := func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		}
		build := func(d core.Discipline) Config {
			cfg := DefaultConfig(d)
			if layers == 6 {
				// One more layer, and a bigger one: average the extra
				// code into the per-layer size so the total working set
				// is 5*6KB + extraCode.
				cfg.Layers = 6
				cfg.LayerCode = (5*cfg.LayerCode + extraCode) / 6
				// Crypto does real per-byte work on top of the loop.
				cfg.IssuePerByte *= 2
			}
			return cfg
		}
		conv := averageRuns(build(core.Conventional), opts, mk)
		ldlp := averageRuns(build(core.LDLP), opts, mk)
		ratio := 0.0
		if ldlp.Latency.Mean() > 0 {
			ratio = conv.Latency.Mean() / ldlp.Latency.Mean()
		}
		tab.Add(float64(layers), conv.Latency.Mean(), ldlp.Latency.Mean(), ratio)
	}
	return tab
}

// UnifiedCacheAblation verifies Figure 4's caption — "the results of the
// paper hold equally well for processors with unified caches" — by
// running both disciplines on a 16 KB unified cache (same total capacity
// as the split 8+8 KB pair).
func UnifiedCacheAblation(opts SweepOptions, rate float64) *stats.Table {
	tab := stats.NewTable("Ablation: split vs unified cache", "unified",
		"conv-latency", "ldlp-latency", "ratio")
	for i, unified := range []bool{false, true} {
		mk := func(seed int64) traffic.Source {
			return traffic.NewPoisson(rate, opts.MessageSize, seed)
		}
		build := func(d core.Discipline) Config {
			cfg := DefaultConfig(d)
			if unified {
				cfg.Machine.Unified = true
				cfg.Machine.ICache.Size = 16384 // same total capacity
			}
			return cfg
		}
		conv := averageRuns(build(core.Conventional), opts, mk)
		ldlp := averageRuns(build(core.LDLP), opts, mk)
		ratio := 0.0
		if ldlp.Latency.Mean() > 0 {
			ratio = conv.Latency.Mean() / ldlp.Latency.Mean()
		}
		tab.Add(float64(i), conv.Latency.Mean(), ldlp.Latency.Mean(), ratio)
	}
	return tab
}
