// Command ldlpreport regenerates the complete reproduction — every
// table, figure, ablation and validation — one text file per artifact.
// It is the only reproduction driver: EXPERIMENTS.md, `make report`
// and the package's own test all range over the registry below.
//
// Usage:
//
//	ldlpreport [-out results|-] [-paper] [name ...]
//
// With no names every artifact is rendered; `-out -` prints to stdout
// instead of writing <name>.txt. -paper runs the published methodology
// (100 seeds × 1 s per point); the default is a faster 30×1 s that
// preserves every shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ldlp/internal/checksum"
	"ldlp/internal/core"
	"ldlp/internal/fleet/gossip"
	"ldlp/internal/layout"
	"ldlp/internal/memtrace"
	"ldlp/internal/signal"
	"ldlp/internal/sim"
	"ldlp/internal/stats"
	"ldlp/internal/tcpmodel"
	"ldlp/internal/traffic"
)

// artifact is one regenerable result: results/<name>.txt holds what
// render returns at defaultSweep.
type artifact struct {
	name   string
	render func(sim.SweepOptions) string
}

// registry lists every artifact once, in the paper's order.
var registry = []artifact{
	// §2 measurement artifacts.
	{"table1", renderTable1},
	{"phases", renderPhases},
	{"table3", renderTable3},
	{"figure1", renderFigure1},
	// §4 figures.
	{"figure5", func(o sim.SweepOptions) string {
		return withPlot(sim.Figure5(o), stats.PlotOptions{YLabel: "misses/msg"})
	}},
	{"figure6", func(o sim.SweepOptions) string {
		return withPlot(sim.Figure6(o), stats.PlotOptions{LogY: true, YLabel: "seconds"})
	}},
	{"figure7", renderFigure7},
	{"figure_loss", func(o sim.SweepOptions) string { return sim.FigureLoss(o, 3000, nil).String() }},
	// §5: checksum, CISC density, dense layout.
	{"figure8", renderFigure8},
	{"cisc", renderCISC},
	{"layout", renderLayout},
	{"ablations", renderAblations},
	// §1 signalling goal, and what sharding and dispatch add to it.
	{"signalling", renderSignalling},
	{"shard_scaling", renderShardScaling},
	{"dispatch_skew", func(sim.SweepOptions) string {
		return sim.FigureDispatchSkew(sim.DefaultDispatchSkew()).String()
	}},
	{"fleet_gossip", renderFleetGossip},
	// §6 rule of thumb against the simulator.
	{"analytic", renderAnalytic},
}

// defaultSweep is the methodology results/ is committed at.
func defaultSweep() sim.SweepOptions {
	return sim.SweepOptions{Runs: 30, Duration: 1, MessageSize: 552, BaseSeed: 1, Parallel: true}
}

func main() {
	var (
		out   = flag.String("out", "results", "output directory, or - for stdout")
		paper = flag.Bool("paper", false, "full 100-seed methodology")
	)
	flag.Parse()
	arts, err := selectArtifacts(flag.Args())
	if err != nil {
		fatal(err)
	}
	opts := defaultSweep()
	if *paper {
		opts = sim.PaperSweep()
	}
	if *out == "-" {
		for _, a := range arts {
			fmt.Print(a.render(opts))
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	start := time.Now()
	for _, a := range arts {
		content := a.render(opts)
		if err := os.WriteFile(filepath.Join(*out, a.name+".txt"), []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%-28s %7d bytes  (%v elapsed)\n", a.name+".txt", len(content), time.Since(start).Round(time.Second))
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
}

// selectArtifacts resolves positional names against the registry; none
// means all.
func selectArtifacts(names []string) ([]artifact, error) {
	if len(names) == 0 {
		return registry, nil
	}
	var arts []artifact
	for _, n := range names {
		i := slices.IndexFunc(registry, func(a artifact) bool { return a.name == n })
		if i < 0 {
			var known []string
			for _, a := range registry {
				known = append(known, a.name)
			}
			return nil, fmt.Errorf("unknown artifact %q (have %s)", n, strings.Join(known, " "))
		}
		arts = append(arts, registry[i])
	}
	return arts, nil
}

func withPlot(t *stats.Table, p stats.PlotOptions) string { return t.String() + "\n" + t.Plot(p) }

// paperTrace is one receive+ACK iteration of the modeled NetBSD path,
// analyzed at the paper's 32-byte lines.
func paperTrace() (*memtrace.Trace, *memtrace.Analysis) {
	trace := tcpmodel.New(tcpmodel.DefaultConfig()).Trace()
	return trace, memtrace.Analyze(trace, 32)
}

func renderTable1(sim.SweepOptions) string {
	_, a := paperTrace()
	s := "Table 1 (measured vs paper)\n"
	paper := map[string]memtrace.LayerSet{}
	for _, row := range tcpmodel.PaperTable1() {
		paper[row.Layer] = row
	}
	got := map[string]memtrace.LayerSet{}
	for _, row := range a.PerLayer {
		got[row.Layer] = row
	}
	var code, ro, mut int
	for _, name := range tcpmodel.PaperLayers {
		g, p := got[name], paper[name]
		s += fmt.Sprintf("%-20s code %5d (%5d)  ro %4d (%4d)  mut %4d (%4d)\n",
			name, g.Code, p.Code, g.ReadOnly, p.ReadOnly, g.Mutable, p.Mutable)
		code += g.Code
		ro += g.ReadOnly
		mut += g.Mutable
	}
	pc, pr, pm := tcpmodel.PaperTable1Totals()
	s += fmt.Sprintf("%-20s code %5d (%5d)  ro %4d (%4d)  mut %4d (%4d)\n", "Total", code, pc, ro, pr, mut, pm)
	s += fmt.Sprintf("dilution %.1f%% (paper ≈25%%)\n", 100*a.Dilution())
	// §2.4's headline: the message itself accounts for ≈2.2 KB of
	// off-CPU IO (fetched twice, stored twice).
	msgIO := 4 * tcpmodel.DefaultConfig().MessageLen
	s += fmt.Sprintf("memory traffic per packet: %d bytes of code+ro fetched vs ≈%d bytes of message IO, %.0fx\n"+
		"  (the paper: \"the processor spends ten times longer fetching protocol code from memory than moving message contents\")\n",
		code+ro, msgIO, float64(code+ro)/float64(msgIO))
	return s
}

func renderTable3(sim.SweepOptions) string {
	trace, _ := paperTrace()
	s := "Table 3 (measured; paper in parentheses)\n"
	paper := map[string]map[int]memtrace.LineSizeDelta{}
	for _, sw := range tcpmodel.PaperTable3() {
		paper[sw.Class] = map[int]memtrace.LineSizeDelta{}
		for _, d := range sw.Deltas {
			paper[sw.Class][d.LineSize] = d
		}
	}
	for _, sw := range memtrace.LineSweep(trace, []int{64, 16, 8, 4}) {
		s += sw.Class + ":\n"
		for _, d := range sw.Deltas {
			if p, ok := paper[sw.Class][d.LineSize]; ok {
				s += fmt.Sprintf("  %2dB: bytes %+4.0f%% (%+.0f%%)  lines %+5.0f%% (%+.0f%%)\n",
					d.LineSize, 100*d.BytesDelta, 100*p.BytesDelta, 100*d.LinesDelta, 100*p.LinesDelta)
			} else {
				s += fmt.Sprintf("  %2dB: bytes %+4.0f%%  lines %+5.0f%%  (paper: N/A)\n",
					d.LineSize, 100*d.BytesDelta, 100*d.LinesDelta)
			}
		}
	}
	return s
}

func renderPhases(sim.SweepOptions) string {
	trace, a := paperTrace()
	s := "Table 2 / Figure 1 margins (measured vs paper)\n"
	for i, p := range tcpmodel.PaperPhases() {
		g := a.Phases[i]
		for _, r := range []struct {
			kind                   string
			bytes, refs, pb, prefs int
		}{
			{"code", g.CodeBytes, g.CodeRefs, p.CodeBytes, p.CodeRefs},
			{"read", g.ReadBytes, g.ReadRefs, p.ReadBytes, p.ReadRefs},
			{"write", g.WriteBytes, g.WriteRefs, p.WriteBytes, p.WriteRefs},
		} {
			s += fmt.Sprintf("%-9s %-5s%6d B %6d refs (%6d B %6d refs)\n", p.Name, r.kind, r.bytes, r.refs, r.pb, r.prefs)
		}
	}
	s += "code bytes shared between phases (diagonal: the phase's own; why the margins exceed Table 1's union):\n"
	s += fmt.Sprintf("%10s", "")
	for _, n := range tcpmodel.PhaseNames {
		s += fmt.Sprintf(" %10s", n)
	}
	s += "\n"
	for i, row := range memtrace.PhaseOverlap(trace, 32) {
		s += fmt.Sprintf("%10s", tcpmodel.PhaseNames[i])
		for _, b := range row {
			s += fmt.Sprintf(" %10d", b)
		}
		s += "\n"
	}
	for _, d := range tcpmodel.PhaseDescriptions {
		s += fmt.Sprintf("[%s] %s\n", d.Name, d.Description)
	}
	return s
}

func renderFigure1(sim.SweepOptions) string {
	_, a := paperTrace()
	s := "Figure 1: active code per phase (touched bytes per function; one # per 128 bytes)\n"
	for p, name := range tcpmodel.PhaseNames {
		s += fmt.Sprintf("--- %s ---\n", name)
		for _, ft := range a.CodeByPhaseFunc[p] {
			s += strings.TrimRight(fmt.Sprintf("  %-20s %6d B %7d refs %s", ft.Func, ft.Bytes, ft.Refs, strings.Repeat("#", ft.Bytes/128)), " ") + "\n"
		}
	}
	return s
}

func renderFigure7(opts sim.SweepOptions) string {
	if opts.Runs < sim.PaperSweep().Runs {
		opts.Duration = 2 // with fewer seeds than the paper's hundred, bursts need a longer window
	}
	// Validate the trace model first: the variance-time Hurst estimate
	// should look like the Bellcore data.
	var s string
	arr := traffic.Take(traffic.NewSelfSimilar(traffic.DefaultSelfSimilar(sim.Figure7Rate, 1)), 120, 0)
	if h, err := traffic.EstimateHurst(arr, 120, 0.1); err == nil {
		s = fmt.Sprintf("# self-similar source: Hurst ≈ %.2f (Poisson would be 0.5; Bellcore measures 0.7-0.9)\n", h)
	}
	return s + withPlot(sim.Figure7(opts), stats.PlotOptions{LogY: true, YLabel: "seconds"})
}

func renderFigure8(sim.SweepOptions) string {
	bsd, simple := checksum.BSDModel(), checksum.SimpleModel()
	return fmt.Sprintf("%s\n# %s: %d bytes code (%d active); %s: %d bytes code\n"+
		"# cold crossover: %d bytes (paper ≈900)\n"+
		"# anchors: cold cost at size 0 = 426 (4.4BSD) vs 176 (simple) cycles, as printed in the paper\n",
		checksum.Figure8(1000, 16), bsd.Name, bsd.CodeBytes, bsd.ActiveBytes, simple.Name, simple.CodeBytes,
		checksum.ColdCrossover(1500))
}

func renderCISC(sim.SweepOptions) string {
	_, alpha := paperTrace()
	i386 := memtrace.Analyze(tcpmodel.New(tcpmodel.I386Config()).Trace(), 32)
	return fmt.Sprintf("§5.2 CISC vs RISC code density\n"+
		"Alpha code working set %6d bytes\n"+
		"i386  code working set %6d bytes (%.0f%% of Alpha; paper: \"about 40-55%% smaller\")\n"+
		"both still exceed an 8 KB primary cache, so LDLP helps either machine; the CISC just\n"+
		"benefits less (its conventional stack misses less to begin with)\n",
		alpha.Code.Bytes, i386.Code.Bytes, 100*float64(i386.Code.Bytes)/float64(alpha.Code.Bytes))
}

func renderLayout(sim.SweepOptions) string {
	trace, _ := paperTrace()
	b := layout.Measure(trace, 32)
	return fmt.Sprintf("§5.4 dense code layout\nbefore %d lines, after %d lines: %.1f%% saved (paper estimates ≈25%%)\n",
		b.Before.Lines, b.After.Lines, 100*b.Reduction)
}

func renderAblations(opts sim.SweepOptions) string {
	var s string
	for _, t := range []*stats.Table{
		sim.BatchCapAblation(opts, 8000, []int{1, 2, 4, 8, 14, 32}),
		sim.QueueCostAblation(opts, 6000, []float64{0, 20, 40, 100, 200}),
		sim.CacheSizeAblation(opts, 3000, []int{8192, 16384, 32768, 65536}),
		sim.DisciplineAblation(opts, 4000),
		sim.PrefetchAblation(opts, 3000),
		sim.ValueAddedAblation(opts, 2500, 12288),
		sim.UnifiedCacheAblation(opts, 5000),
		sim.LayerGroupAblation(opts, 3000, []int{1, 2, 3, 5}),
	} {
		s += t.String() + "\n"
	}
	return s
}

// goalMsgs is §1's offered load: 10 000 setup/teardown pairs a second.
const goalMsgs = float64(signal.GoalPairsPerSec * signal.MessagesPerPair)

// signalRun is one signalling-stack run at rate msgs/s; proc is the CPU
// time per processed message.
func signalRun(d core.Discipline, duration, rate float64, placement, arrivals int64) (res sim.Result, proc float64) {
	cfg := signal.SimConfig(d)
	cfg.Duration = duration
	cfg.Seed = placement
	res = sim.New(cfg).Run(traffic.NewPoisson(rate, signal.MessageBytes, arrivals))
	if res.Processed > 0 {
		proc = res.BusyFrac * duration / float64(res.Processed)
	}
	return res, proc
}

// renderSignalling evaluates §1's goal on the modeled signalling stack:
// a load sweep around it, the verdict at it, and what the per-switch
// latency adds up to across a cross-country path.
func renderSignalling(opts sim.SweepOptions) string {
	s := fmt.Sprintf("§1 goal: %d setup/teardown pairs/s (%.0f msgs/s) at %.0fµs processing latency, 100 MHz CPU\n\n",
		signal.GoalPairsPerSec, goalMsgs, signal.GoalLatency*1e6)

	tab := stats.NewTable("signalling load sweep", "pairs/s",
		"conv-proc-µs", "conv-total-µs", "conv-drop%", "ldlp-proc-µs", "ldlp-total-µs", "ldlp-drop%", "ldlp-batch")
	for _, pairs := range []float64{2000, 4000, 6000, 8000, 10000, 12000} {
		var row []float64
		for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
			var proc, total, drop, batch stats.Running
			for r := int64(0); r < int64(opts.Runs); r++ {
				res, p := signalRun(d, opts.Duration, pairs*signal.MessagesPerPair, r+1, r+100)
				if res.Processed > 0 {
					proc.Add(p)
					total.Add(res.Latency.Mean())
				}
				if res.Offered > 0 {
					drop.Add(float64(res.Dropped) / float64(res.Offered))
				}
				batch.Add(res.MeanBatch)
			}
			row = append(row, proc.Mean()*1e6, total.Mean()*1e6, drop.Mean()*100, batch.Mean())
		}
		// A conventional batch is one message by construction: no column.
		tab.Add(pairs, append(row[:3], row[4:]...)...)
	}
	s += tab.String() + "\n"

	res, proc := signalRun(core.LDLP, opts.Duration, goalMsgs, 1, 1)
	verdict := "MET"
	if proc > signal.GoalLatency || res.Dropped > 0 {
		verdict = "NOT MET"
	}
	s += fmt.Sprintf("verdict at goal load under LDLP: %s (processing %.1fµs/msg, %d drops, mean total latency %.0fµs)\n",
		verdict, proc*1e6, res.Dropped, res.Latency.Mean()*1e6)

	// §1's cross-country scenario: the SETUP traverses 10-20 transit
	// switches; each adds its per-message total latency (queueing
	// included) at the goal's per-switch load.
	const hops = 15
	s += fmt.Sprintf("\ncross-country setup across %d switches (per-switch latency x hops):\n", hops)
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		r, _ := signalRun(d, opts.Duration, goalMsgs, 1, 3)
		perHop := r.Latency.Mean()
		s += fmt.Sprintf("  %-14s %8.2f ms end-to-end (%.0fµs per switch)\n", d, perHop*hops*1e3, perHop*1e6)
	}
	return s + "  (the paper: 5-20ms per message in contemporary implementations\n" +
		"   could add a large fraction of a second across a large network)\n"
}

// renderShardScaling goes beyond the paper: a switch CPU sharded across
// cores by call (flow hash), each core running the LDLP schedule over
// its own caches — N independent copies of the signalling stack, each
// fed 1/N of an over-saturating Poisson load. The real engine's
// wall-clock twin is core.shard_ns_per_msg.s{1,2} in bench/.
func renderShardScaling(opts sim.SweepOptions) string {
	const overload = 6 * goalMsgs
	opts.MessageSize = signal.MessageBytes
	return fmt.Sprintf("sharded LDLP at %.0f msgs/s offered (modeled multi-core signalling switch):\n%s",
		overload, sim.ShardScaling(signal.SimConfig(core.LDLP), opts, overload, []int{1, 2, 4}))
}

// renderFleetGossip is threshold gossip at the figure's 1000-node
// default: a function of its seed alone, so the sweep size is ignored.
func renderFleetGossip(sim.SweepOptions) string {
	tab, err := gossip.FigureFleetGossip(gossip.FigureConfig{})
	if err != nil {
		fatal(err)
	}
	return tab.String()
}

// renderAnalytic prints §6's rule of thumb as the closed-form sim.Costs
// beside the simulator it summarises, with the residual between them:
// service time where the conventional stack is unsaturated, capacity
// where LDLP is driven far past saturation.
func renderAnalytic(sim.SweepOptions) string {
	const msg = 552
	run := func(d core.Discipline, rate float64) (sim.Config, sim.Result) {
		cfg := sim.DefaultConfig(d)
		cfg.Duration = 1
		return cfg, sim.New(cfg).Run(traffic.NewPoisson(rate, msg, 5))
	}
	cfg, conv := run(core.Conventional, 2000)
	_, ldlp := run(core.LDLP, 20000)
	k, hz, b := cfg.AnalyticCosts(), cfg.Machine.ClockHz, cfg.MaxBatch(msg)
	convCycles := k.Service(core.Conventional, 1, msg) * hz
	ldlpCycles := k.Service(core.LDLP, b, b*msg) * hz / float64(b)

	s := fmt.Sprintf("§6 rule of thumb as a closed-form cost model (%.0f MHz, %d KB caches, %d layers, %d-byte messages)\n",
		hz/1e6, cfg.Machine.ICache.Size/1024, cfg.Layers, msg)
	s += fmt.Sprintf("conventional %.1fµs per message; ldlp %.1fµs per batch + %.1fµs per message; both %.2fns per byte\n",
		k.PerMessage*1e6, k.PerBatch*1e6, k.PerMessageBatched*1e6, k.PerByte*1e9)
	s += fmt.Sprintf("conv %.0f cy/msg (%.0f msgs/s); ldlp@B=%d %.0f cy/msg (%.0f msgs/s); speedup %.2fx\n",
		convCycles, hz/convCycles, b, ldlpCycles, hz/ldlpCycles, convCycles/ldlpCycles)
	s += fmt.Sprintf("%-38s %9s %9s %9s\n", "", "model", "simulator", "residual")
	for _, r := range []struct {
		what       string
		model, sim float64
	}{
		{"conventional cycles/msg at 2k/s", convCycles, conv.BusyFrac * cfg.Duration * hz / float64(conv.Processed)},
		{"ldlp capacity msgs/s (20k/s offered)", hz / ldlpCycles, ldlp.Throughput},
	} {
		s += fmt.Sprintf("%-38s %9.0f %9.0f %+8.1f%%\n", r.what, r.model, r.sim, 100*(r.model-r.sim)/r.sim)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldlpreport:", err)
	os.Exit(1)
}
