package gossip

import (
	"bytes"
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/fleet"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Type: Prop, Sender: 0, Step: 1},
		{Type: Ack, Sender: 41, Step: 7, Vec: []VecEntry{{ID: 3, WitStep: 6}}},
		{Type: Wit, Sender: 999999, Step: 1 << 30, Vec: []VecEntry{
			{ID: 0, WitStep: 1}, {ID: 4294967295, WitStep: 2}, {ID: 7, WitStep: 3},
		}},
	}
	for _, m := range msgs {
		b := m.AppendTo(nil)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode(%v): %v", m, err)
		}
		if got.Type != m.Type || got.Sender != m.Sender || got.Step != m.Step || len(got.Vec) != len(m.Vec) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
		for i := range m.Vec {
			if got.Vec[i] != m.Vec[i] {
				t.Fatalf("vec[%d]: got %+v, want %+v", i, got.Vec[i], m.Vec[i])
			}
		}
	}
}

func TestCodecRejectsMangledDatagrams(t *testing.T) {
	good := (&Msg{Type: Prop, Sender: 1, Step: 2, Vec: []VecEntry{{ID: 9, WitStep: 1}}}).AppendTo(nil)
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:headerLen-1],
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad type":    {Magic, 9, 0, 0, 0, 1, 0, 0, 0, 2, 0},
		"vec too big": {Magic, byte(Prop), 0, 0, 0, 1, 0, 0, 0, 2, 5},
		"trailing":    append(append([]byte{}, good...), 0xFF),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted %x", name, b)
		}
	}
}

// runSmall drives a quick gossip convergence and returns the result.
func runSmall(t *testing.T, d core.Discipline, link fleet.LinkConfig, seed int64) Result {
	t.Helper()
	res, err := Run(Config{
		Fleet: fleet.Config{
			Topology:   fleet.SmallWorld(48, 3, 0.1, seed),
			Discipline: d,
			Link:       link,
			Seed:       seed,
			Horizon:    30,
		},
		TargetStep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGossipConverges(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		t.Run(d.String(), func(t *testing.T) {
			res := runSmall(t, d, fleet.LANLink(), 2)
			if !res.Completed {
				t.Fatalf("did not reach step %d: %+v", res.Target, res)
			}
			if res.RoundsPerStep <= 0 || res.StepTime <= 0 || res.DeliveryP99 <= 0 {
				t.Fatalf("degenerate metrics: %+v", res)
			}
		})
	}
}

// TestGossipConvergesUnderLoss: the heartbeat retransmission must carry
// the protocol through a lossy link preset.
func TestGossipConvergesUnderLoss(t *testing.T) {
	res := runSmall(t, core.LDLP, fleet.FaultyLink(fleet.LANLink(), "bernoulli"), 4)
	if !res.Completed {
		t.Fatalf("did not converge under loss: %+v", res)
	}
	if res.Fleet.Faults.LossDrops == 0 {
		t.Fatal("loss preset dropped nothing — the run proved nothing")
	}
}

// TestReplayByteIdentical is the determinism deliverable: two runs of
// the same 256-node topology and seed must produce byte-identical event
// logs, gossip step histories, and merged telemetry snapshots.
func TestReplayByteIdentical(t *testing.T) {
	type artifacts struct {
		events    []byte
		history   []byte
		telemetry []telemetry.HistEntry
	}
	run := func() artifacts {
		var log bytes.Buffer
		res, err := Run(Config{
			Fleet: fleet.Config{
				Topology:   fleet.SmallWorld(256, 4, 0.1, 6),
				Discipline: core.LDLP,
				Link:       fleet.FaultyLink(fleet.LANLink(), "bernoulli"),
				Seed:       6,
				Horizon:    30,
				EventLog:   &log,
			},
			TargetStep: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("256-node run did not converge: %+v", res)
		}
		return artifacts{events: log.Bytes(), history: res.History, telemetry: res.Telemetry}
	}
	a, b := run(), run()
	if len(a.events) == 0 || len(a.history) == 0 || len(a.telemetry) == 0 {
		t.Fatal("empty replay artifacts")
	}
	if !bytes.Equal(a.events, b.events) {
		t.Errorf("event logs differ: %d vs %d bytes", len(a.events), len(b.events))
	}
	if !bytes.Equal(a.history, b.history) {
		t.Errorf("step histories differ:\n%s\nvs\n%s", a.history[:min(len(a.history), 400)], b.history[:min(len(b.history), 400)])
	}
	if len(a.telemetry) != len(b.telemetry) {
		t.Fatalf("telemetry entry counts differ: %d vs %d", len(a.telemetry), len(b.telemetry))
	}
	for i := range a.telemetry {
		if a.telemetry[i].Name != b.telemetry[i].Name || a.telemetry[i].Hist != b.telemetry[i].Hist {
			t.Errorf("telemetry %q differs across replays", a.telemetry[i].Name)
		}
	}
}

// TestLDLPBeatsConventionalTail: under gossip fan-in the LDLP fleet's
// p99 delivery latency must beat conventional call-through — the
// paper's claim at fleet scale.
func TestLDLPBeatsConventionalTail(t *testing.T) {
	ldlp := runSmall(t, core.LDLP, fleet.LANLink(), 8)
	conv := runSmall(t, core.Conventional, fleet.LANLink(), 8)
	if !ldlp.Completed || !conv.Completed {
		t.Fatalf("runs incomplete: ldlp=%v conv=%v", ldlp.Completed, conv.Completed)
	}
	if ldlp.DeliveryP99 >= conv.DeliveryP99 {
		t.Fatalf("LDLP p99 %.0fns not better than conventional %.0fns", ldlp.DeliveryP99, conv.DeliveryP99)
	}
}

func TestFigureFleetGossipSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure cell sweep is slow")
	}
	tab, err := FigureFleetGossip(FigureConfig{Nodes: 96, Degree: 4, TargetStep: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if len(s) == 0 {
		t.Fatal("empty figure")
	}
}

// Poll decodes every datagram into the runner's one receive vector.
// Back-to-back messages with different vector lengths must each be
// handled with their own entries: none dropped when a longer message
// follows a shorter one, none left over when a shorter follows a longer.
func TestPollScratchVectorDoesNotLeakBetweenDatagrams(t *testing.T) {
	r, err := NewRunner(Config{TargetStep: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{Topology: fleet.FullMesh(16), Discipline: core.LDLP, Seed: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A stand-in for node 1 puts real frames on a captured wire.
	var frames [][]byte
	peer := netstack.NewNet()
	peer.SetCarrier(func(_ layers.MACAddr, m *mbuf.Mbuf) {
		frames = append(frames, bytes.Clone(m.Contiguous()))
		m.FreeChain()
	})
	sock, err := peer.AddHost("n1", fleet.IPOf(1), netstack.DefaultOptions(core.Conventional)).UDPSocket(9090)
	if err != nil {
		t.Fatal(err)
	}
	// Stale-step acks: only their vectors have any effect on node 0.
	for _, vec := range [][]VecEntry{
		{{ID: 2, WitStep: 1}, {ID: 3, WitStep: 1}},
		{{ID: 4, WitStep: 2}, {ID: 5, WitStep: 2}, {ID: 6, WitStep: 2}, {ID: 7, WitStep: 2}, {ID: 8, WitStep: 2}},
		{{ID: 9, WitStep: 3}},
		nil,
	} {
		m := Msg{Type: Ack, Sender: 1, Step: 99, Vec: vec}
		sock.SendTo(fleet.IPOf(0), 9090, m.AppendTo(nil))
	}

	n0 := f.Node(0)
	for _, fr := range frames {
		n0.Host().InjectFrame(n0.Host().FrameFromBytes(fr))
	}
	n0.Host().Pump()
	r.Poll(n0, 0)

	want := []uint32{0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 0, 0, 0, 0, 0, 0}
	if got := r.nodes[0].knownWit; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("knownWit after four datagrams = %v, want %v", got, want)
	}
	if r.sent != 0 {
		t.Errorf("stale acks provoked %d sends", r.sent)
	}
}
