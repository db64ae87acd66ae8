package core

import (
	"fmt"
	"testing"

	"ldlp/internal/telemetry"
)

// buildTelemetryStack is a two-layer LDLP chain with telemetry wired.
func buildTelemetryStack(batchLimit int) (*Stack[int], *telemetry.Domain) {
	now := int64(0)
	d := telemetry.NewDomain("core-test", func() int64 { now += 10; return now })
	s := NewStack[int](Options{Discipline: LDLP, BatchLimit: batchLimit})
	var upper *Layer[int]
	lower := s.AddLayer("mac", func(m int, emit Emit[int]) { emit(upper, m) })
	upper = s.AddLayer("ip", func(m int, emit Emit[int]) { emit(nil, m) })
	s.Link(lower, upper)
	s.SetTelemetry(d.Tracer("shard0", 64), d.Hist("ldlp-batch"))
	return s, d
}

func TestStackTelemetryRecordsBatchesAndSpans(t *testing.T) {
	s, d := buildTelemetryStack(4)
	for i := 0; i < 10; i++ {
		if err := s.Inject(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()

	snap := d.Snapshot()
	if len(snap.Tracers) != 1 {
		t.Fatalf("want 1 tracer, got %d", len(snap.Tracers))
	}
	tr := snap.Tracers[0]
	if len(tr.Layers) < 2 || tr.Layers[0] != "mac" || tr.Layers[1] != "ip" {
		t.Fatalf("layer names not registered: %v", tr.Layers)
	}

	// Exactly one record per (round, layer) pass: nothing else records
	// on this tracer, and every scheduling round runs one pass.
	if rounds := s.Stats().Rounds; int64(len(tr.Events)) != rounds || tr.Lost != 0 {
		t.Fatalf("%d records (%d lost) for %d rounds, want one per pass", len(tr.Events), tr.Lost, rounds)
	}
	// 10 messages with BatchLimit 4: the schedule is data-dependent, but
	// every bottom pass is capped at 4 and they must total 10, as must
	// the passes of the layer above.
	var batches, total, upper int64
	last := int64(0)
	for _, ev := range tr.Events {
		if ev.Kind != telemetry.EvLayerEnter || ev.Dur <= 0 {
			t.Fatalf("not a pass record with a duration: %+v", ev)
		}
		// Starts come from the injected clock, strictly increasing.
		if ev.TS <= last {
			t.Fatalf("pass starts not monotonic: %d after %d", ev.TS, last)
		}
		last = ev.TS
		if ev.Layer != 0 {
			upper += ev.Arg
			continue
		}
		if ev.Arg > 4 {
			t.Errorf("batch %d exceeds BatchLimit 4", ev.Arg)
		}
		batches++
		total += ev.Arg
	}
	if total != 10 || upper != 10 {
		t.Errorf("pass sizes total %d at the bottom and %d above, want 10 and 10", total, upper)
	}

	h, ok := snap.Hist("ldlp-batch")
	if !ok {
		t.Fatal("ldlp-batch histogram missing from snapshot")
	}
	if h.Count != batches || h.Sum != 10 {
		t.Errorf("batch hist count/sum = %d/%d, want %d/10", h.Count, h.Sum, batches)
	}
}

// TestShardedStackTelemetry wires each shard's private stack to its own
// tracer and a shared batch histogram from the build callback, the way
// the netstack does.
func TestShardedStackTelemetry(t *testing.T) {
	d := telemetry.NewDomain("shards", nil)
	batch := d.Hist("ldlp-batch")
	var upper []*Layer[int]
	s := NewShardedStack[int](Options{Discipline: LDLP, BatchLimit: 8, Shards: 2},
		func(m int) uint64 { return uint64(m) },
		func(i int, st *Stack[int]) {
			lo := st.AddLayer("mac", func(m int, emit Emit[int]) { emit(upper[i], m) })
			up := st.AddLayer("ip", func(m int, emit Emit[int]) { emit(nil, m) })
			st.Link(lo, up)
			upper = append(upper, up)
			st.SetTelemetry(d.Tracer(fmt.Sprint("shard", i), 128), batch)
		})
	defer s.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := s.Inject(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()

	snap := d.Snapshot()
	if len(snap.Tracers) != 2 {
		t.Fatalf("want one tracer per shard, got %d", len(snap.Tracers))
	}
	for _, tr := range snap.Tracers {
		if tr.Recorded == 0 {
			t.Errorf("shard %d recorded no events", tr.Shard)
		}
		if len(tr.Layers) < 2 || tr.Layers[0] != "mac" {
			t.Errorf("shard %d layers not registered: %v", tr.Shard, tr.Layers)
		}
	}
	h, ok := snap.Hist("ldlp-batch")
	if !ok || h.Sum != n {
		t.Fatalf("shared batch hist sum = %d (ok=%v), want %d", h.Sum, ok, n)
	}
}

func TestConventionalStackRecordsNothing(t *testing.T) {
	now := int64(0)
	d := telemetry.NewDomain("conv", func() int64 { now++; return now })
	s := NewStack[int](Options{Discipline: Conventional})
	var upper *Layer[int]
	lower := s.AddLayer("mac", func(m int, emit Emit[int]) { emit(upper, m) })
	upper = s.AddLayer("ip", func(m int, emit Emit[int]) { emit(nil, m) })
	s.Link(lower, upper)
	tr := d.Tracer("shard0", 64)
	s.SetTelemetry(tr, d.Hist("ldlp-batch"))

	for i := 0; i < 100; i++ {
		_ = s.Inject(i)
	}
	// The conventional call-through path is deliberately uninstrumented:
	// per-frame events there would tax exactly the benchmark the paper
	// measures against. Only the LDLP schedule flight-records.
	if got := tr.Ring().Recorded(); got != 0 {
		t.Fatalf("conventional call-through recorded %d events, want 0", got)
	}
}
