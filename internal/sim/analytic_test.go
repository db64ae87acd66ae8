package sim

import (
	"math"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/traffic"
)

// TestAnalyticCostsMatchPaperCalibration pins the closed-form constants
// for the §4 machine: the fleet simulator's service-time model must not
// drift from the cache-level calibration without this test noticing.
func TestAnalyticCostsMatchPaperCalibration(t *testing.T) {
	k := DefaultConfig(core.LDLP).AnalyticCosts()
	perMsg, perMsgBatched, perBatch, perByte := k.PerMessage, k.PerMessageBatched, k.PerBatch, k.PerByte

	// 5 layers x (1376 issue + 192 lines x 20 cycle refill) / 100 MHz.
	wantMsg := 5 * (1376 + 192*20.0) / 100e6
	// 5 layers x (1376 issue + 40 queue-op) / 100 MHz.
	wantWarm := 5 * (1376 + 40.0) / 100e6
	// 5 layers x 192 lines x 20 cycle refill / 100 MHz.
	wantBatch := 5 * 192 * 20.0 / 100e6
	// 0.5 issue + 20/32 refill cycles per byte / 100 MHz.
	wantByte := (0.5 + 20.0/32) / 100e6

	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"perMsg", perMsg, wantMsg},
		{"perMsgBatched", perMsgBatched, wantWarm},
		{"perBatch", perBatch, wantBatch},
		{"perByte", perByte, wantByte},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// The shape that makes LDLP worth building: a batch of one is
	// slightly worse than call-through (queue handling is pure
	// overhead), and the cache-fit batch of 14 wins by ~3x (Figure 6's
	// small-message regime).
	one := perBatch + perMsgBatched
	if one <= perMsg {
		t.Errorf("LDLP batch of 1 should cost more than conventional: %v <= %v", one, perMsg)
	}
	fourteen := (perBatch + 14*perMsgBatched) / 14
	if ratio := perMsg / fourteen; ratio < 2.5 || ratio > 4 {
		t.Errorf("batch-of-14 speedup = %.2f, want the paper's ~3x", ratio)
	}
}

// paperCycles evaluates the closed-form model on the §4 machine in the
// units §6 argues in: cycles per 552-byte message, conventional and
// LDLP at the given batch.
func paperCycles(batch int) (conv, ldlp float64) {
	cfg := DefaultConfig(core.LDLP)
	k, hz := cfg.AnalyticCosts(), cfg.Machine.ClockHz
	return k.Service(core.Conventional, 1, 552) * hz,
		k.Service(core.LDLP, batch, batch*552) * hz / float64(batch)
}

func TestRuleOfThumbNumbers(t *testing.T) {
	// LDLP at the cache-bound batch amortizes the 19200 by ~12x.
	b := DefaultConfig(core.LDLP).MaxBatch(552)
	if b < 10 || b > 14 {
		t.Errorf("max batch = %d, expect ≈12", b)
	}
	// Conventional: 5 layers × 192 code lines × 20 cycles = 19200 stall +
	// issue 5×1376 = 6880 + the data loop 552 × 1.125 = 621.
	conv, ldlp := paperCycles(b)
	if conv < 26000 || conv > 30000 {
		t.Errorf("conventional cycles/msg = %.0f, expect ≈27k", conv)
	}
	if ldlp > conv/2.5 {
		t.Errorf("ldlp cycles/msg = %.0f vs conv %.0f: amortization too weak", ldlp, conv)
	}
	// Batch 1 must cost slightly MORE than conventional (queue ops).
	if _, one := paperCycles(1); one <= conv {
		t.Error("batch-1 LDLP should pay the queueing overhead")
	}
}

func TestCapacitiesBracketThePaperFigures(t *testing.T) {
	cc, lc := paperCycles(DefaultConfig(core.LDLP).MaxBatch(552))
	conv, ldlp := 100e6/cc, 100e6/lc
	// Figure 6's shape: conventional saturates in the 3-4k range, LDLP
	// runs toward 10k (flattening past 8500 per Figure 5's caption).
	if conv < 3000 || conv > 4500 {
		t.Errorf("conventional capacity = %.0f, expect 3-4.5k msgs/s", conv)
	}
	if ldlp < 8000 || ldlp > 12000 {
		t.Errorf("LDLP capacity = %.0f, expect ≈10k msgs/s", ldlp)
	}
	if sp := ldlp / conv; sp < 2 || sp > 4 {
		t.Errorf("speedup = %.2f, expect the paper's ≈2.5-3x", sp)
	}
}

// The analytic model must agree with the discrete-event simulator: the
// simulator reproduces the paper, the model explains the simulator.
func TestModelMatchesSimulator(t *testing.T) {
	lcfg := DefaultConfig(core.LDLP)
	lcfg.Duration = 1
	ana, ldlpCycles := paperCycles(lcfg.MaxBatch(552))

	// Conventional service time from the simulator (busy time per
	// message at moderate load).
	cfg := DefaultConfig(core.Conventional)
	cfg.Duration = 1
	res := New(cfg).Run(traffic.NewPoisson(2000, 552, 5))
	simCycles := res.BusyFrac * cfg.Duration * cfg.Machine.ClockHz / float64(res.Processed)
	if math.Abs(simCycles-ana) > 0.07*ana {
		t.Errorf("conventional: sim %.0f cy/msg vs analytic %.0f (>7%% apart)", simCycles, ana)
	}

	// LDLP capacity: drive the simulator well past saturation and compare
	// achieved throughput with the predicted capacity.
	lres := New(lcfg).Run(traffic.NewPoisson(20000, 552, 5))
	pred := lcfg.Machine.ClockHz / ldlpCycles
	if math.Abs(lres.Throughput-pred) > 0.15*pred {
		t.Errorf("LDLP capacity: sim %.0f msgs/s vs analytic %.0f (>15%% apart)",
			lres.Throughput, pred)
	}
}

// §6's closing admonition: code added to speed up processing costs at
// least one miss per extra cache line — in the model, a layer of that
// much code adds exactly its lines × the miss penalty.
func TestExtraCodeCost(t *testing.T) {
	extra := func(bytes int) float64 {
		cfg := DefaultConfig(core.Conventional)
		cfg.Layers, cfg.LayerCode = 1, bytes
		return cfg.AnalyticCosts().PerBatch * cfg.Machine.ClockHz
	}
	// §6: say, 10 cycles for every extra 32 bytes — at our 20-cycle
	// penalty, one line costs 20.
	if got := extra(32); got != 20 {
		t.Errorf("one extra line costs %.0f cycles, want 20", got)
	}
	if got := extra(1000); got != 32*20 {
		t.Errorf("1000 extra bytes cost %.0f, want %d", got, 32*20)
	}
}

func TestMaxBatchDegenerateCases(t *testing.T) {
	cfg := DefaultConfig(core.LDLP)
	if b := cfg.MaxBatch(100000); b != 1 {
		t.Errorf("oversize message batch = %d, want 1", b)
	}
	cfg.Machine.DCache.Size = 100
	if b := cfg.MaxBatch(552); b != 1 {
		t.Errorf("tiny cache batch = %d, want 1", b)
	}
}
