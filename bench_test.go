// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact. Each reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` doubles
// as the reproduction harness in miniature (the full-methodology runs —
// 100 seeds × 1 s — live behind the cmd/ tools).
package ldlp_test

import (
	"fmt"
	"testing"

	"ldlp"
	"ldlp/internal/checksum"
	"ldlp/internal/core"
	"ldlp/internal/memtrace"
	"ldlp/internal/signal"
	"ldlp/internal/sim"
	"ldlp/internal/tcpmodel"
	"ldlp/internal/traffic"
)

// benchSweep keeps figure benchmarks fast while preserving shape.
func benchSweep() sim.SweepOptions {
	return sim.SweepOptions{Runs: 2, Duration: 0.1, MessageSize: 552, BaseSeed: 1, Parallel: true}
}

// BenchmarkTable1WorkingSet regenerates the §2 working-set breakdown:
// one trace of the modeled NetBSD TCP receive & acknowledge path,
// analyzed at 32-byte lines.
func BenchmarkTable1WorkingSet(b *testing.B) {
	var code, ro, mut int
	for i := 0; i < b.N; i++ {
		m := tcpmodel.New(tcpmodel.DefaultConfig())
		a := memtrace.Analyze(m.Trace(), 32)
		code, ro, mut = a.Code.Bytes, a.ReadOnly.Bytes, a.Mutable.Bytes
	}
	b.ReportMetric(float64(code), "code-bytes")
	b.ReportMetric(float64(ro), "ro-bytes")
	b.ReportMetric(float64(mut), "mut-bytes")
}

// BenchmarkTable2Phases regenerates the per-phase totals of the traced
// path (Table 2 / Figure 1 margins).
func BenchmarkTable2Phases(b *testing.B) {
	var intrRefs int
	for i := 0; i < b.N; i++ {
		m := tcpmodel.New(tcpmodel.DefaultConfig())
		a := memtrace.Analyze(m.Trace(), 32)
		intrRefs = a.Phases[tcpmodel.PhasePktIntr].CodeRefs
	}
	b.ReportMetric(float64(intrRefs), "pktintr-code-refs")
}

// BenchmarkTable3LineSweep regenerates the cache-line-size sweep.
func BenchmarkTable3LineSweep(b *testing.B) {
	var delta64 float64
	for i := 0; i < b.N; i++ {
		sweeps := ldlp.LineSizeSweep(552, []int{4, 8, 16, 64})
		for _, d := range sweeps[0].Deltas {
			if d.LineSize == 64 {
				delta64 = d.LinesDelta
			}
		}
	}
	b.ReportMetric(delta64*100, "code-lines-delta-64B-%")
}

// BenchmarkFigure1Map regenerates the per-phase active-code map.
func BenchmarkFigure1Map(b *testing.B) {
	var funcs int
	for i := 0; i < b.N; i++ {
		a := ldlp.WorkingSetReport(552, 32)
		funcs = len(a.CodeByPhaseFunc[1])
	}
	b.ReportMetric(float64(funcs), "pktintr-functions")
}

// BenchmarkFigure5Misses regenerates cache misses/message vs arrival rate
// at a representative high load (8000 msgs/s).
func BenchmarkFigure5Misses(b *testing.B) {
	var convI, ldlpI float64
	for i := 0; i < b.N; i++ {
		conv := sim.New(simCfg(core.Conventional, i)).Run(traffic.NewPoisson(8000, 552, int64(i)))
		ld := sim.New(simCfg(core.LDLP, i)).Run(traffic.NewPoisson(8000, 552, int64(i)))
		convI, ldlpI = conv.IMissesPerMsg, ld.IMissesPerMsg
	}
	b.ReportMetric(convI, "conv-I/msg")
	b.ReportMetric(ldlpI, "ldlp-I/msg")
}

func simCfg(d core.Discipline, seed int) sim.Config {
	cfg := sim.DefaultConfig(d)
	cfg.Duration = 0.1
	cfg.Seed = int64(seed + 1)
	return cfg
}

// BenchmarkSimPoissonLDLP runs the §4 Poisson workload under LDLP and
// reports the telemetry histogram quantiles alongside ns/op: batch
// sizes from the engine's dispatch loop and end-to-end message latency
// from the simulated clock: the distributions, not just means.
func BenchmarkSimPoissonLDLP(b *testing.B) {
	var res sim.Result
	for i := 0; i < b.N; i++ {
		res = sim.New(simCfg(core.LDLP, i)).Run(traffic.NewPoisson(8000, 552, int64(i+1)))
	}
	if res.BatchHist.Count == 0 || res.LatencyHist.Count == 0 {
		b.Fatal("sim result carries no telemetry histograms")
	}
	b.ReportMetric(res.BatchHist.Quantile(0.50), "p50-batch")
	b.ReportMetric(res.BatchHist.Quantile(0.99), "p99-batch")
	b.ReportMetric(res.LatencyHist.Quantile(0.50), "p50-latency-ns")
	b.ReportMetric(res.LatencyHist.Quantile(0.99), "p99-latency-ns")
}

// BenchmarkFigure6Latency regenerates latency vs arrival rate at the same
// representative load.
func BenchmarkFigure6Latency(b *testing.B) {
	var convLat, ldlpLat float64
	for i := 0; i < b.N; i++ {
		conv := sim.New(simCfg(core.Conventional, i)).Run(traffic.NewPoisson(6000, 552, int64(i)))
		ld := sim.New(simCfg(core.LDLP, i)).Run(traffic.NewPoisson(6000, 552, int64(i)))
		convLat, ldlpLat = conv.Latency.Mean(), ld.Latency.Mean()
	}
	b.ReportMetric(convLat*1e6, "conv-µs")
	b.ReportMetric(ldlpLat*1e6, "ldlp-µs")
}

// BenchmarkFigure7TraceDriven regenerates the trace-driven clock sweep at
// the 20 MHz point where the disciplines diverge sharply.
func BenchmarkFigure7TraceDriven(b *testing.B) {
	var convLat, ldlpLat float64
	for i := 0; i < b.N; i++ {
		// Self-similar burstiness needs a couple of simulated seconds to
		// express itself.
		cc := simCfg(core.Conventional, i)
		cc.Machine.ClockHz = 20e6
		cc.Duration = 2
		lc := simCfg(core.LDLP, i)
		lc.Machine.ClockHz = 20e6
		lc.Duration = 2
		src := func(seed int64) traffic.Source {
			return traffic.NewSelfSimilar(traffic.DefaultSelfSimilar(sim.Figure7Rate, seed))
		}
		conv := sim.New(cc).Run(src(int64(i)))
		ld := sim.New(lc).Run(src(int64(i)))
		convLat, ldlpLat = conv.Latency.Mean(), ld.Latency.Mean()
	}
	b.ReportMetric(convLat*1e3, "conv-ms@20MHz")
	b.ReportMetric(ldlpLat*1e3, "ldlp-ms@20MHz")
}

// BenchmarkFigure8Checksum regenerates the cold/warm checksum comparison.
func BenchmarkFigure8Checksum(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		_ = checksum.Figure8(1000, 100)
		crossover = checksum.ColdCrossover(1200)
	}
	b.ReportMetric(float64(crossover), "cold-crossover-bytes")
}

// BenchmarkSignallingGoal evaluates the §1 goal (10 000 setup/teardown
// pairs per second, 100 µs processing latency).
func BenchmarkSignallingGoal(b *testing.B) {
	var proc float64
	offered := float64(signal.GoalPairsPerSec * signal.MessagesPerPair)
	for i := 0; i < b.N; i++ {
		cfg := signal.SimConfig(core.LDLP)
		cfg.Duration = 0.2
		res := sim.New(cfg).Run(traffic.NewPoisson(offered, signal.MessageBytes, int64(i+1)))
		if res.Processed > 0 {
			proc = res.BusyFrac * cfg.Duration / float64(res.Processed)
		}
	}
	b.ReportMetric(proc*1e6, "processing-µs/msg")
}

// BenchmarkAblationBatchCap sweeps the LDLP batch cap (why Figure 5
// flattens beyond 8500 msgs/s).
func BenchmarkAblationBatchCap(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.BatchCapAblation(benchSweep(), 8000, []int{1, 4, 14})
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}

// BenchmarkAblationQueueCost sweeps the enqueue/dequeue overhead (§3.2's
// ~40 instructions).
func BenchmarkAblationQueueCost(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.QueueCostAblation(benchSweep(), 6000, []float64{0, 40, 200})
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}

// BenchmarkAblationCacheSize sweeps primary cache size (§6's question:
// do 64 KB caches make LDLP irrelevant?).
func BenchmarkAblationCacheSize(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.CacheSizeAblation(benchSweep(), 3000, []int{8192, 16384, 65536})
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}

// BenchmarkAblationDiscipline compares all three disciplines of Figure 2.
func BenchmarkAblationDiscipline(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.DisciplineAblation(benchSweep(), 4000)
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}

// BenchmarkNetstackLDLPBurst measures the real Go netstack under a burst,
// LDLP-scheduled (absolute numbers reflect the Go runtime, not the
// paper's machine; the shape argument lives in the simulator).
func BenchmarkNetstackLDLPBurst(b *testing.B) {
	benchNetstackBurst(b, ldlp.LDLP)
}

// BenchmarkNetstackConventionalBurst is the conventional twin.
func BenchmarkNetstackConventionalBurst(b *testing.B) {
	benchNetstackBurst(b, ldlp.Conventional)
}

func benchNetstackBurst(b *testing.B, d ldlp.Discipline) {
	n := ldlp.NewNet()
	a := n.AddHost("a", ldlp.IPAddr{10, 7, 0, 1}, ldlp.DefaultHostOptions(d))
	hb := n.AddHost("b", ldlp.IPAddr{10, 7, 0, 2}, ldlp.DefaultHostOptions(d))
	sa, _ := a.UDPSocket(1)
	sb, _ := hb.UDPSocket(2)
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			sa.SendTo(hb.IP(), 2, payload)
		}
		n.RunUntilIdle()
		for {
			if _, ok := sb.Recv(); !ok {
				break
			}
		}
	}
}

// BenchmarkShardedLDLP measures the real concurrent sharded engine on a
// signalling-sized CPU-bound workload (three layers, each checksumming a
// 120-byte message) across shard counts. Throughput scales with shards
// on a multi-core machine; on a single core the sub-benchmarks stay
// comparable (the scheduling overhead, not the scaling, is visible).
// The deterministic scaling claim lives in BenchmarkShardedModelScaling,
// which does not depend on the host's core count.
func BenchmarkShardedLDLP(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := ldlp.NewShardedStack[int](
				ldlp.Options{Discipline: ldlp.LDLP, Shards: shards, BatchLimit: 14},
				func(m int) uint64 { return uint64(m % 64) },
				func(_ int, st *ldlp.Stack[int]) {
					payload := make([]byte, signal.MessageBytes)
					var layers [3]*ldlp.Layer[int]
					for i := 0; i < 3; i++ {
						i := i
						layers[i] = st.AddLayer(fmt.Sprintf("L%d", i), func(m int, emit ldlp.Emit[int]) {
							payload[m%len(payload)] = byte(m)
							_ = checksum.Simple(payload)
							if i < 2 {
								emit(layers[i+1], m)
							} else {
								emit(nil, m)
							}
						})
					}
					st.Link(layers[0], layers[1])
					st.Link(layers[1], layers[2])
				})
			defer s.Close()
			b.SetBytes(signal.MessageBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Inject(i); err != nil {
					b.Fatal(err)
				}
				if i%4096 == 4095 {
					s.Drain()
				}
			}
			s.Drain()
			b.StopTimer()
			if d := s.Stats().Delivered; d != int64(b.N) {
				b.Fatalf("delivered %d of %d", d, b.N)
			}
		})
	}
}

// BenchmarkShardedModelScaling reports the modeled 4-shard speedup at a
// load far past single-core LDLP saturation on the paper's machine —
// the deterministic form of the >1.5x acceptance criterion (each shard
// brings its own primary caches, so delivered throughput scales until
// offered load stops being the bottleneck; at this load it never does,
// giving ~4x).
func BenchmarkShardedModelScaling(b *testing.B) {
	cfg := sim.DefaultConfig(core.LDLP)
	cfg.Duration = 0.05
	var speedup float64
	for i := 0; i < b.N; i++ {
		one := sim.RunSharded(cfg, 1, 90000, 552, 1)
		four := sim.RunSharded(cfg, 4, 90000, 552, 1)
		speedup = four.Throughput / one.Throughput
	}
	b.ReportMetric(speedup, "modeled-4shard-speedup")
}

// BenchmarkShardedNetstackBurst is BenchmarkNetstackLDLPBurst with the
// receiving host's stack sharded four ways — the end-to-end surface of
// the concurrent engine.
func BenchmarkShardedNetstackBurst(b *testing.B) {
	n := ldlp.NewNet()
	a := n.AddHost("a", ldlp.IPAddr{10, 7, 0, 1}, ldlp.DefaultHostOptions(ldlp.LDLP))
	hb := n.AddHost("b", ldlp.IPAddr{10, 7, 0, 2}, ldlp.ShardedHostOptions(4))
	defer n.Close()
	sa, _ := a.UDPSocket(1)
	sb, _ := hb.UDPSocket(2)
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			sa.SendTo(hb.IP(), 2, payload)
		}
		n.RunUntilIdle()
		for {
			if _, ok := sb.Recv(); !ok {
				break
			}
		}
	}
}

// BenchmarkAblationPrefetch compares the disciplines with next-line
// instruction prefetch on and off (§1.2's latency-hiding aside).
func BenchmarkAblationPrefetch(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.PrefetchAblation(benchSweep(), 3000)
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}

// BenchmarkAblationValueAdded grows the stack with a crypto-sized layer
// (§6's forward look) and reports the conventional/LDLP latency ratio.
func BenchmarkAblationValueAdded(b *testing.B) {
	var tab *ldlp.Table
	for i := 0; i < b.N; i++ {
		tab = sim.ValueAddedAblation(benchSweep(), 2500, 12288)
	}
	b.ReportMetric(float64(len(tab.Points)), "rows")
}
