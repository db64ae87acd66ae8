package ldlp

import (
	"ldlp/internal/checksum"
	"ldlp/internal/layout"
	"ldlp/internal/memtrace"
	"ldlp/internal/sim"
	"ldlp/internal/stats"
	"ldlp/internal/tcpmodel"
	"ldlp/internal/traffic"
)

// This file exposes the paper's evaluation and measurement machinery.

// SimConfig parameterizes one synthetic-stack simulation run (§4's
// five-layer stack on the modeled machine).
type SimConfig = sim.Config

// SimResult summarizes one run (latency, misses per message, drops,
// batch sizes).
type SimResult = sim.Result

// SweepOptions controls figure sweeps (seeds, duration, message size).
type SweepOptions = sim.SweepOptions

// DefaultSimConfig returns the paper's §4 configuration for a discipline.
func DefaultSimConfig(d Discipline) SimConfig { return sim.DefaultConfig(d) }

// RunSim executes one simulation over a traffic source.
func RunSim(cfg SimConfig, src TrafficSource) SimResult {
	return sim.New(cfg).Run(src)
}

// QuickSweep is a cheap smoke-test variant.
func QuickSweep() SweepOptions { return sim.QuickSweep() }

// Table is a rendered sweep result (one row per x, named series).
type Table = stats.Table

// Figure5 regenerates cache misses/message vs arrival rate (Poisson).
func Figure5(opts SweepOptions) *Table { return sim.Figure5(opts) }

// Figure6 regenerates latency vs arrival rate (Poisson).
func Figure6(opts SweepOptions) *Table { return sim.Figure6(opts) }

// Figure8 regenerates the checksum cold/warm comparison of §5.1.
func Figure8(maxSize, step int) *Table { return checksum.Figure8(maxSize, step) }

// CacheSizeAblation sweeps the primary cache size (§6's question).
func CacheSizeAblation(opts SweepOptions, rate float64, sizes []int) *Table {
	return sim.CacheSizeAblation(opts, rate, sizes)
}

// TrafficSource produces message arrivals.
type TrafficSource = traffic.Source

// Arrival is one message arrival (time, size).
type Arrival = traffic.Arrival

// NewPoisson returns a Poisson source of fixed-size messages.
func NewPoisson(rate float64, size int, seed int64) TrafficSource {
	return traffic.NewPoisson(rate, size, seed)
}

// SynthesizeTrace generates Bellcore-format self-similar arrivals.
func SynthesizeTrace(rate, seconds float64, seed int64) []Arrival {
	return traffic.Synthesize(rate, seconds, seed)
}

// --- §2 measurement machinery ---

// WorkingSet is the per-class working-set summary of one trace analysis.
type WorkingSet = memtrace.ClassSet

// LayerWorkingSet is one Table 1 row.
type LayerWorkingSet = memtrace.LayerSet

// TraceAnalysis is the full §2 analysis of one receive+ACK iteration.
type TraceAnalysis = memtrace.Analysis

// WorkingSetReport models one NetBSD TCP receive & acknowledge iteration
// (§2's traced path) and analyzes it at the given cache line size,
// regenerating Table 1, the Figure 1 phase map and Table 2's phase
// totals.
func WorkingSetReport(messageLen int, lineSize int) *TraceAnalysis {
	cfg := tcpmodel.DefaultConfig()
	if messageLen > 0 {
		cfg.MessageLen = messageLen
	}
	m := tcpmodel.New(cfg)
	return memtrace.Analyze(m.Trace(), lineSize)
}

// LineSizeSweep regenerates Table 3: per-class working-set deltas at the
// given cache line sizes relative to the 32-byte baseline.
func LineSizeSweep(messageLen int, lineSizes []int) []memtrace.ClassSweep {
	cfg := tcpmodel.DefaultConfig()
	if messageLen > 0 {
		cfg.MessageLen = messageLen
	}
	m := tcpmodel.New(cfg)
	return memtrace.LineSweep(m.Trace(), lineSizes)
}

// PaperTable1 returns the published Table 1 for comparison.
func PaperTable1() []LayerWorkingSet { return tcpmodel.PaperTable1() }

// ChecksumSimple and ChecksumUnrolled are the real Internet-checksum
// implementations §5.1 compares (both used by the netstack).
func ChecksumSimple(data []byte) uint16 { return checksum.Simple(data) }

// ChecksumUnrolled is the 4.4BSD-style unrolled variant.
func ChecksumUnrolled(data []byte) uint16 { return checksum.Unrolled(data) }

// LayoutBenefit runs the §5.4 code-layout optimization over the modeled
// TCP trace and reports the working-set reduction (the paper estimates
// ≈25% of fetched instruction bytes never execute).
func LayoutBenefit(messageLen, lineSize int) layout.Benefit {
	cfg := tcpmodel.DefaultConfig()
	if messageLen > 0 {
		cfg.MessageLen = messageLen
	}
	return layout.Measure(tcpmodel.New(cfg).Trace(), lineSize)
}

// EstimateHurst estimates the Hurst parameter of an arrival stream by the
// variance-time method (≈0.5 for Poisson, 0.7–0.9 for Bellcore-like
// self-similar traffic).
func EstimateHurst(arrivals []Arrival, horizon, binSize float64) (float64, error) {
	return traffic.EstimateHurst(arrivals, horizon, binSize)
}
