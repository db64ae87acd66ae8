package telemetry

import (
	"runtime"
	"sync"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, DefaultRingCap},
		{0, DefaultRingCap},
		{1, 2},
		{2, 2},
		{3, 4},
		{1000, 1024},
		{1024, 1024},
		{1025, 2048},
	}
	for _, c := range cases {
		if got := NewRing(c.in).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingRecordAndSnapshot(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.RecordSpan(int64(100+i), int64(i), EvTxFlush, 2, int64(i))
	}
	evs, head := r.Snapshot()
	if len(evs) != 5 || head != 5 {
		t.Fatalf("got %d events at head %d, want 5 at 5", len(evs), head)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i)
		}
		if ev.TS != int64(100+i) || ev.Dur != int64(i) || ev.Kind != EvTxFlush || ev.Layer != 2 || ev.Arg != int64(i) {
			t.Errorf("event %d decoded wrong: %+v", i, ev)
		}
	}
}

// TestRingWraparound overfills a small ring several times over and
// checks the snapshot retains exactly the newest capacity-1 events (the
// slot the writer would fill next is never trusted), oldest-first and
// contiguous.
func TestRingWraparound(t *testing.T) {
	const capacity = 16
	r := NewRing(capacity)
	total := 3 * capacity
	for i := 0; i < total; i++ {
		r.Record(int64(i), EvLayerEnter, uint8(i%7), int64(i*10))
	}
	if got := r.Recorded(); got != uint64(total) {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	evs, head := r.Snapshot()
	if len(evs) != capacity-1 || head != uint64(total) {
		t.Fatalf("snapshot retained %d events at head %d, want %d at %d", len(evs), head, capacity-1, total)
	}
	for i, ev := range evs {
		wantSeq := uint64(total - len(evs) + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d: Seq = %d, want %d (not the newest contiguous tail)", i, ev.Seq, wantSeq)
		}
		if ev.TS != int64(wantSeq) || ev.Arg != int64(wantSeq*10) || ev.Layer != uint8(wantSeq%7) {
			t.Errorf("event %d payload inconsistent with its seq: %+v", i, ev)
		}
	}
}

// seqEvent is the event the lap tests record at logical index seq:
// every payload field a pure function of seq, so a reader can tell a
// slot that was overwritten (or half overwritten) while it was copied
// from one that was not.
func seqEvent(seq uint64) Event {
	return Event{
		Seq:   seq,
		TS:    int64(seq) * 7,
		Dur:   int64(seq % 1000),
		Kind:  EvDrop,
		Layer: uint8(seq % 251),
		Arg:   -int64(seq) * 3,
	}
}

// checkSnapshot reports what is wrong with one Ring.Snapshot result:
// events must be exactly seqEvent of their Seq, oldest first without a
// gap, ending at head-1.
func checkSnapshot(evs []Event, head uint64) string {
	for i, ev := range evs {
		if ev != seqEvent(ev.Seq) {
			return "torn or overwritten slot returned"
		}
		if want := head - uint64(len(evs)) + uint64(i); ev.Seq != want {
			return "events not contiguous up to the validated head"
		}
	}
	return ""
}

// TestRingTornReadSafety has the ring's one writer lap a 64-slot ring
// over a thousand times while two readers snapshot it. No snapshot may
// ever return a slot the writer had started to reuse: the published
// head is what guarantees this, and the all-atomic slot words are what
// make it clean under -race.
func TestRingTornReadSafety(t *testing.T) {
	const laps = 1200
	r := NewRing(64)
	total := uint64(laps * r.Cap())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(0); seq < total; seq++ {
			ev := seqEvent(seq)
			r.RecordSpan(ev.TS, ev.Dur, ev.Kind, ev.Layer, ev.Arg)
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if msg := checkSnapshot(r.Snapshot()); msg != "" {
					errc <- msg
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}

	// Post-quiescence snapshot is exact: everything retained, to the end.
	evs, head := r.Snapshot()
	if len(evs) != r.Cap()-1 || head != total {
		t.Fatalf("quiescent snapshot has %d events at head %d, want %d at %d", len(evs), head, r.Cap()-1, total)
	}
	if msg := checkSnapshot(evs, head); msg != "" {
		t.Fatal(msg)
	}
}

// TestDomainSnapshotLostUnderLiveWriter snapshots a domain while its
// tracer's writer runs. Recorded and Lost must come from the one head
// the events were validated against: counting from a later read of the
// head reports events recorded during the snapshot as lost.
func TestDomainSnapshotLostUnderLiveWriter(t *testing.T) {
	d := NewDomain("live", func() int64 { return 0 })
	tr := d.Tracer("s0", 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Event(EvDrop, 1, 2)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for tr.Ring().Recorded() == 0 { // the writer is running
		runtime.Gosched()
	}
	for i := 0; i < 50000; i++ {
		ts := d.Snapshot().Tracers[0]
		if ts.Recorded != ts.Lost+uint64(len(ts.Events)) {
			t.Fatalf("Recorded %d != Lost %d + %d events", ts.Recorded, ts.Lost, len(ts.Events))
		}
		for j, ev := range ts.Events {
			if ev.Seq != ts.Lost+uint64(j) {
				t.Fatalf("event %d has Seq %d, want %d (contiguous from Lost)", j, ev.Seq, ts.Lost+uint64(j))
			}
		}
	}
}

func TestRingSnapshotEmptyRing(t *testing.T) {
	if evs, head := NewRing(8).Snapshot(); len(evs) != 0 || head != 0 {
		t.Fatalf("empty ring snapshot returned %d events at head %d", len(evs), head)
	}
}

func TestEnableGate(t *testing.T) {
	d := NewDomain("gate", func() int64 { return 42 })
	tr := d.Tracer("shard0", 8)
	h := d.Hist("x")

	prev := Enable(false)
	defer Enable(prev)
	tr.Event(EvTxFlush, 0, 9)
	tr.Pass(1, 9, tr.Now())
	h.Observe(9)
	if got := tr.Ring().Recorded(); got != 0 {
		t.Errorf("disabled tracer recorded %d events", got)
	}
	if got := tr.Now(); got != 0 {
		t.Errorf("disabled tracer read its clock: Now() = %d", got)
	}
	if got := h.Snapshot().Count; got != 0 {
		t.Errorf("disabled hist observed %d samples", got)
	}

	Enable(true)
	tr.Event(EvTxFlush, 0, 9)
	h.Observe(9)
	if got := tr.Ring().Recorded(); got != 1 {
		t.Errorf("enabled tracer recorded %d events, want 1", got)
	}
	if got := h.Snapshot().Count; got != 1 {
		t.Errorf("enabled hist observed %d samples, want 1", got)
	}
	evs, _ := tr.Ring().Snapshot()
	if len(evs) != 1 || evs[0].TS != 42 {
		t.Errorf("event not stamped by domain clock: %+v", evs)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Event(EvDrop, 1, 2) // must not panic
	tr.Pass(1, 2, tr.Now())
	tr.RegisterLayer(0, "x")
	if tr.Now() != 0 {
		t.Error("nil tracer Now() != 0")
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := NewRing(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(1, EvTxFlush, 0, 2)
	})
	if allocs != 0 {
		t.Fatalf("Ring.Record allocates %v/op, want 0", allocs)
	}
	d := NewDomain("a", func() int64 { return 7 })
	tr := d.Tracer("s0", 64)
	allocs = testing.AllocsPerRun(1000, func() {
		tr.Event(EvDrop, 1, 3)
		tr.Pass(1, 3, tr.Now())
	})
	if allocs != 0 {
		t.Fatalf("Tracer.Event + Pass allocate %v/op, want 0", allocs)
	}
	h := d.Hist("h")
	allocs = testing.AllocsPerRun(1000, func() {
		h.Observe(11)
	})
	if allocs != 0 {
		t.Fatalf("Hist.Observe allocates %v/op, want 0", allocs)
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(int64(i), EvLayerEnter, 3, 17)
	}
}

func BenchmarkTracerEventDisabled(b *testing.B) {
	d := NewDomain("bench", func() int64 { return 0 })
	tr := d.Tracer("s0", 1024)
	prev := Enable(false)
	defer Enable(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Event(EvLayerEnter, 3, 17)
	}
}
