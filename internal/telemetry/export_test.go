package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func buildSnapshot(t *testing.T) Snapshot {
	t.Helper()
	now := int64(0)
	d := NewDomain("host-a", func() int64 { return now })
	tr := d.Tracer("shard0", 64)
	tr.RegisterLayer(0, "device")
	tr.RegisterLayer(1, "ip")

	now = 1000
	start := tr.Now()
	now = 2000
	tr.Pass(0, 4, start) // bottom layer: also the batch observation
	start = tr.Now()
	now = 3500
	tr.Pass(1, 4, start)
	now = 4000
	tr.Event(EvDrop, 1, int64(DropBadIP))
	tr.Event(EvRetransmit, 0, 17)
	tr.Event(EvFaultVerdict, 0, int64(VerdictDrop|VerdictCorrupt))
	tr.Event(EvTxFlush, 0, 3)

	d.Hist("rx-batch").Observe(4)
	return d.Snapshot()
}

func TestSnapshotJSONStable(t *testing.T) {
	s := buildSnapshot(t)
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(buildSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot JSON not stable across identical runs:\n%s\n%s", b1, b2)
	}
	var back Snapshot
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if pass := back.Tracers[0].Events[1]; pass.TS != 2000 || pass.Dur != 1500 || pass.Layer != 1 || pass.Arg != 4 {
		t.Fatalf("pass record lost layer, size, start or duration in JSON: %+v", pass)
	}
	if back.Domain != "host-a" || len(back.Tracers) != 1 || len(back.Tracers[0].Events) != 6 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if h, ok := back.Hist("rx-batch"); !ok || h.Count != 1 {
		t.Fatalf("round-trip lost histogram: %+v ok=%v", h, ok)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	s := buildSnapshot(t)
	events := s.ChromeTrace(7)

	// Starts with process/thread metadata.
	if events[0].Ph != "M" || events[0].Name != "process_name" || events[0].Args["name"] != "host-a" {
		t.Fatalf("missing process metadata: %+v", events[0])
	}
	if events[1].Ph != "M" || events[1].Name != "thread_name" || events[1].Args["name"] != "shard0" {
		t.Fatalf("missing thread metadata: %+v", events[1])
	}

	byPh := map[string][]TraceEvent{}
	for _, ev := range events {
		if ev.PID != 7 {
			t.Fatalf("event with wrong pid: %+v", ev)
		}
		byPh[ev.Ph] = append(byPh[ev.Ph], ev)
	}
	// One complete event per pass, named by the registered layer.
	x := byPh["X"]
	if len(x) != 2 || x[0].Name != "device" || x[1].Name != "ip" {
		t.Fatalf("X events wrong: %+v", x)
	}
	if x[1].TS != 2.0 || x[1].Dur != 1.5 || x[1].Args["n"] != int64(4) {
		t.Fatalf("pass start/duration/size not carried (ns->us): %+v", x[1])
	}
	if len(byPh["B"])+len(byPh["E"]) != 0 {
		t.Fatalf("begin/end events emitted: %+v %+v", byPh["B"], byPh["E"])
	}
	// Counters: the batch derived from the bottom-layer pass + txflush.
	c := byPh["C"]
	if len(c) != 2 || c[0].Name != "batch" || c[0].TS != 1.0 || c[0].Args["batch"] != int64(4) || c[1].Name != "txflush" {
		t.Fatalf("C events = %+v, want batch (from the device pass) and txflush", c)
	}
	// Instants: drop, retransmit, fault — with decoded args.
	var sawDrop, sawRetx, sawFault bool
	for _, ev := range byPh["I"] {
		switch ev.Name {
		case "drop":
			sawDrop = true
			if ev.Args["reason"] != DropBadIP.String() {
				t.Errorf("drop reason not decoded: %+v", ev.Args)
			}
			if ev.Args["layer"] != "ip" {
				t.Errorf("drop layer not resolved: %+v", ev.Args)
			}
		case "retransmit":
			sawRetx = true
		case "fault":
			sawFault = true
			if ev.Args["verdict"] != "drop+corrupt" {
				t.Errorf("verdict not decoded: %+v", ev.Args)
			}
		}
	}
	if !sawDrop || !sawRetx || !sawFault {
		t.Fatalf("missing instants: drop=%v retx=%v fault=%v", sawDrop, sawRetx, sawFault)
	}
}

// TestChromeTraceOrdersTrackByTimestamp: a pass is recorded when it
// ends, under the time it began, so the ring holds it after the drop
// that happened inside it; the exported track must still read in time
// order (and a pass under a clock that stood still keeps a dur, or
// viewers discard it).
func TestChromeTraceOrdersTrackByTimestamp(t *testing.T) {
	s := Snapshot{
		Domain: "d",
		Tracers: []TracerSnapshot{{
			Label: "s0",
			Events: []Event{
				{Seq: 10, TS: 250, Kind: EvDrop, Layer: 2, Arg: int64(DropBadIP)},
				{Seq: 11, TS: 200, Dur: 100, Kind: EvLayerEnter, Layer: 2, Arg: 3},
				{Seq: 12, TS: 300, Kind: EvLayerEnter, Layer: 3, Arg: 2},
			},
		}},
	}
	var got []string
	last := -1.0
	for _, ev := range s.ChromeTrace(1) {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < last {
			t.Fatalf("track goes back in time at %+v", ev)
		}
		last = ev.TS
		if ev.Ph == "X" && ev.Dur <= 0 {
			t.Errorf("complete event without a dur: %+v", ev)
		}
		got = append(got, ev.Ph+":"+ev.Name)
	}
	if want := "X:L2 I:drop X:L3"; strings.Join(got, " ") != want {
		t.Fatalf("track = %v, want %s", got, want)
	}
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	s := buildSnapshot(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s.ChromeTrace(1)); err != nil {
		t.Fatal(err)
	}
	var parsed []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != len(s.ChromeTrace(1)) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(s.ChromeTrace(1)))
	}
	if !strings.HasPrefix(buf.String(), "[\n") {
		t.Error("trace should open as a JSON array")
	}
}

func TestTracerSnapshotLost(t *testing.T) {
	d := NewDomain("d", func() int64 { return 0 })
	tr := d.Tracer("s0", 4)
	for i := 0; i < 10; i++ {
		tr.Event(EvTxFlush, 0, int64(i))
	}
	s := d.Snapshot()
	ts := s.Tracers[0]
	if ts.Recorded != 10 {
		t.Fatalf("Recorded = %d, want 10", ts.Recorded)
	}
	if ts.Lost != 10-uint64(len(ts.Events)) {
		t.Fatalf("Lost = %d inconsistent with %d retained", ts.Lost, len(ts.Events))
	}
}

func TestKindTableComplete(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		info := k.Kind()
		if info.Name == "" {
			t.Errorf("kind %d has no registered name", k)
		}
		switch info.Phase {
		case 'X', 'I', 'C':
		default:
			t.Errorf("kind %d has invalid phase %q", k, info.Phase)
		}
	}
	if EventKind(200).Kind().Name != "invalid" {
		t.Error("out-of-range kind should decode as invalid")
	}
}

func TestDropReasonAndVerdictStrings(t *testing.T) {
	if DropBadTCP.String() != "bad-tcp" || DropReason(99).String() != "invalid" {
		t.Error("DropReason.String wrong")
	}
	if VerdictDeliver.String() != "deliver" {
		t.Error("VerdictDeliver should render as deliver")
	}
	if got := (VerdictDuplicate | VerdictDelay).String(); got != "dup+delay" {
		t.Errorf("verdict mask = %q, want dup+delay", got)
	}
}
