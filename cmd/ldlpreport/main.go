// Command ldlpreport regenerates the complete reproduction — every
// table, figure, ablation and validation — into a directory of text
// files, one file per artifact. It is the one-command driver behind
// EXPERIMENTS.md.
//
// Usage:
//
//	ldlpreport [-out results] [-paper]
//
// -paper runs the published methodology (100 seeds × 1 s per point);
// the default is a faster 30×1 s that preserves every shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ldlp/internal/analytic"
	"ldlp/internal/checksum"
	"ldlp/internal/core"
	"ldlp/internal/layout"
	"ldlp/internal/memtrace"
	"ldlp/internal/signal"
	"ldlp/internal/sim"
	"ldlp/internal/stats"
	"ldlp/internal/tcpmodel"
	"ldlp/internal/traffic"
)

func main() {
	var (
		out   = flag.String("out", "results", "output directory")
		paper = flag.Bool("paper", false, "full 100-seed methodology")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	opts := sim.SweepOptions{Runs: 30, Duration: 1, MessageSize: 552, BaseSeed: 1, Parallel: true}
	if *paper {
		opts = sim.PaperSweep()
	}

	start := time.Now()
	write := func(name, content string) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%-28s %7d bytes  (%v elapsed)\n", name, len(content), time.Since(start).Round(time.Second))
	}

	// §2 measurement artifacts.
	model := tcpmodel.New(tcpmodel.DefaultConfig())
	trace := model.Trace()
	a := memtrace.Analyze(trace, 32)
	write("table1.txt", renderTable1(a))
	write("table3.txt", renderTable3(trace))
	write("phases.txt", renderPhases(a, trace))
	write("layout.txt", renderLayout(trace))

	// §4 figures.
	f5 := sim.Figure5(opts)
	write("figure5.txt", f5.String()+"\n"+f5.Plot(stats.PlotOptions{YLabel: "misses/msg"}))
	f6 := sim.Figure6(opts)
	write("figure6.txt", f6.String()+"\n"+f6.Plot(stats.PlotOptions{LogY: true, YLabel: "seconds"}))
	f7opts := opts
	if !*paper {
		f7opts.Duration = 2
	}
	f7 := sim.Figure7(f7opts)
	write("figure7.txt", f7.String()+"\n"+f7.Plot(stats.PlotOptions{LogY: true, YLabel: "seconds"}))

	// §5.1 checksum.
	f8 := checksum.Figure8(1000, 16)
	bsd, simple := checksum.BSDModel(), checksum.SimpleModel()
	write("figure8.txt", fmt.Sprintf("%s\n# %s: %d bytes code (%d active); %s: %d bytes code\n"+
		"# cold crossover: %d bytes (paper ≈900)\n"+
		"# anchors: cold cost at size 0 = 426 (4.4BSD) vs 176 (simple) cycles, as printed in the paper\n",
		f8, bsd.Name, bsd.CodeBytes, bsd.ActiveBytes, simple.Name, simple.CodeBytes,
		checksum.ColdCrossover(1500)))

	// Ablations.
	var ab string
	ab += sim.BatchCapAblation(opts, 8000, []int{1, 2, 4, 8, 14, 32}).String() + "\n"
	ab += sim.QueueCostAblation(opts, 6000, []float64{0, 20, 40, 100, 200}).String() + "\n"
	ab += sim.CacheSizeAblation(opts, 3000, []int{8192, 16384, 32768, 65536}).String() + "\n"
	ab += sim.DisciplineAblation(opts, 4000).String() + "\n"
	ab += sim.PrefetchAblation(opts, 3000).String() + "\n"
	ab += sim.ValueAddedAblation(opts, 2500, 12288).String() + "\n"
	ab += sim.UnifiedCacheAblation(opts, 5000).String() + "\n"
	write("ablations.txt", ab)

	// §1 signalling goal.
	write("signalling.txt", renderSignalling(opts))

	// §6 rule-of-thumb analytic model.
	write("analytic.txt", analytic.PaperStack().String()+"\n")

	fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
}

func renderTable1(a *memtrace.Analysis) string {
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
	return s
}

func renderTable3(trace *memtrace.Trace) string {
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

func renderPhases(a *memtrace.Analysis, trace *memtrace.Trace) string {
	s := "Table 2 / Figure 1 margins (measured vs paper)\n"
	for i, p := range tcpmodel.PaperPhases() {
		g := a.Phases[i]
		s += fmt.Sprintf("%-9s code %6d B %6d refs (%6d B %6d refs)\n",
			p.Name, g.CodeBytes, g.CodeRefs, p.CodeBytes, p.CodeRefs)
	}
	ov := memtrace.PhaseOverlap(trace, 32)
	s += "phase overlap (bytes):\n"
	for i, n := range tcpmodel.PhaseNames {
		for j := range tcpmodel.PhaseNames {
			if j > i {
				s += fmt.Sprintf("  %s ∩ %s = %d\n", n, tcpmodel.PhaseNames[j], ov[i][j])
			}
		}
	}
	return s
}

func renderLayout(trace *memtrace.Trace) string {
	b := layout.Measure(trace, 32)
	return fmt.Sprintf("§5.4 dense code layout\nbefore %d lines, after %d lines: %.1f%% saved (paper estimates ≈25%%)\n",
		b.Before.Lines, b.After.Lines, 100*b.Reduction)
}

func renderSignalling(opts sim.SweepOptions) string {
	offered := float64(signal.GoalPairsPerSec * signal.MessagesPerPair)
	s := fmt.Sprintf("§1 goal: %d pairs/s at %.0fµs processing (100 MHz)\n",
		signal.GoalPairsPerSec, signal.GoalLatency*1e6)
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		cfg := signal.SimConfig(d)
		cfg.Duration = opts.Duration
		res := sim.New(cfg).Run(traffic.NewPoisson(offered, signal.MessageBytes, 1))
		proc := res.BusyFrac * cfg.Duration / float64(res.Processed)
		s += fmt.Sprintf("%-14s processing %6.1fµs/msg, total %8.1fµs, drops %d/%d\n",
			d, proc*1e6, res.Latency.Mean()*1e6, res.Dropped, res.Offered)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldlpreport:", err)
	os.Exit(1)
}
