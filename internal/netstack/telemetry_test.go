package netstack

import (
	"strings"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// TestTelemetryRecordsLDLPRun drives a small UDP exchange under the
// LDLP schedule and checks the flight recorder saw it: one pass record
// per group pass on the receive shard — under the entry layer's index,
// named for every layer the pass runs — batch-size observations from the
// bottom-layer passes, and a tx-flush counter
// event on the pump tracer — all stamped from the Net's simulated
// clock, so timestamps are non-decreasing per tracer.
func TestTelemetryRecordsLDLPRun(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	sb, err := b.UDPSocket(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sa, err := a.UDPSocket(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	for i := 0; i < 8; i++ {
		sa.SendTo(ipB, 7, []byte("ping"))
	}
	n.RunUntilIdle()
	if sb.Pending() != 8 {
		t.Fatalf("delivered %d datagrams, want 8", sb.Pending())
	}

	snap := b.Snapshot().Telemetry
	if snap.Domain != "b" {
		t.Errorf("domain = %q, want b", snap.Domain)
	}

	var shard *telemetry.TracerSnapshot
	for i := range snap.Tracers {
		if snap.Tracers[i].Label == "shard0" {
			shard = &snap.Tracers[i]
		}
	}
	if shard == nil {
		t.Fatal("no shard0 tracer in snapshot")
	}
	var batches int
	var batchSum int64
	perLayer := map[string]int64{}
	passesAt := map[int]int{}
	for i, ev := range shard.Events {
		if i > 0 && ev.TS < shard.Events[i-1].TS {
			t.Fatalf("timestamps went backwards at event %d: %d < %d", i, ev.TS, shard.Events[i-1].TS)
		}
		if ev.Kind != telemetry.EvLayerEnter {
			continue
		}
		perLayer[shard.LayerName(int(ev.Layer))] += ev.Arg
		passesAt[int(ev.Layer)]++
		if ev.Layer == 0 {
			batches++
			batchSum += ev.Arg
		}
	}
	if batches == 0 || batchSum != 8 {
		t.Errorf("bottom-layer passes: %d totaling %d messages, want >0 totaling 8", batches, batchSum)
	}
	for _, name := range []string{"device+ether+ip", "udp+socket"} {
		if perLayer[name] != 8 {
			t.Errorf("passes of %s carried %d messages, want 8 (all: %v)", name, perLayer[name], perLayer)
		}
	}
	if len(perLayer) != 2 {
		t.Errorf("passes recorded under %v, want the device and udp groups only", perLayer)
	}
	// The records sit under the entry layers' indices; the layers a group
	// runs by direct call record no pass and keep their own names.
	rx := b.rx
	for _, l := range []*core.Layer[*Packet]{rx.ether, rx.ipin, rx.sock} {
		if passesAt[l.Index()] != 0 {
			t.Errorf("%d passes recorded under %s, want none", passesAt[l.Index()], l.Name())
		}
		if got := shard.LayerName(l.Index()); got != l.Name() {
			t.Errorf("interior layer %s registered as %q", l.Name(), got)
		}
	}
	if name := shard.LayerName(int(shard.Events[0].Layer)); name != "device+ether+ip" {
		t.Errorf("first event layer = %q, want device+ether+ip (bottom of rx path)", name)
	}

	bh, ok := snap.Hist("ldlp-batch")
	if !ok || bh.Count != int64(batches) || bh.Sum != 8 {
		t.Errorf("ldlp-batch hist = %+v, want count %d sum 8", bh, batches)
	}
	// The transmit side lives on the sender: a's pump tracer flushed
	// each datagram's frame batch.
	asnap := a.Snapshot().Telemetry
	th, ok := asnap.Hist("tx-batch")
	if !ok || th.Count == 0 {
		t.Errorf("sender tx-batch hist = %+v, want flushes recorded", th)
	}
	var flushes int
	for i := range asnap.Tracers {
		if asnap.Tracers[i].Label != "pump" {
			continue
		}
		for _, ev := range asnap.Tracers[i].Events {
			if ev.Kind == telemetry.EvTxFlush {
				flushes++
			}
		}
	}
	if flushes == 0 {
		t.Error("no EvTxFlush events on the sender's pump tracer")
	}
	checkNoLeaks(t)
}

// TestTelemetryRecordBudgetPerACK pins the flight recorder's cost on
// the light-load fast path as a count that repeats exactly: one
// replayed bare TCP ACK under LDLP leaves exactly two records on the
// shard tracer — one pass of each group, entered at device and at tcp,
// each of one message — and none on the pump tracer; under Conventional
// it leaves none at all.
func TestTelemetryRecordBudgetPerACK(t *testing.T) {
	for _, disc := range []core.Discipline{core.LDLP, core.Conventional} {
		n, a, b := twoHosts(t, disc)
		if _, err := b.ListenTCP(80); err != nil {
			t.Fatal(err)
		}
		s := a.DialTCP(ipB, 80)
		n.RunUntilIdle()
		if !s.Established() {
			t.Fatal("handshake did not complete")
		}
		bpcb := b.findPCB(fourTuple{raddr: ipA, rport: s.pcb.tuple.lport, lport: 80})
		ack := buildBareAck(bpcb, ipA, ipB)

		recorded := func() (total uint64, shard telemetry.TracerSnapshot) {
			for _, tr := range b.Snapshot().Telemetry.Tracers {
				total += tr.Recorded
				if tr.Label == "shard0" {
					shard = tr
				}
			}
			return total, shard
		}
		before, _ := recorded()
		fast := b.Snapshot().Counters.TCPFastPath
		b.deliver(mbuf.FromBytes(ack))
		b.process()
		if b.Snapshot().Counters.TCPFastPath != fast+1 {
			t.Fatalf("%v: replayed ACK missed the fast path", disc)
		}
		after, shard := recorded()

		if disc == core.Conventional {
			if after != before {
				t.Errorf("conventional: one ACK wrote %d records, want 0", after-before)
			}
			continue
		}
		if after-before != 2 {
			t.Fatalf("ldlp: one ACK wrote %d records, want 2", after-before)
		}
		var got []string
		var at []int
		for _, ev := range shard.Events[len(shard.Events)-2:] {
			if ev.Kind != telemetry.EvLayerEnter || ev.Arg != 1 {
				t.Errorf("ldlp: not a one-message pass record: %+v", ev)
			}
			got = append(got, shard.LayerName(int(ev.Layer)))
			at = append(at, int(ev.Layer))
		}
		if want := "device+ether+ip tcp+socket"; strings.Join(got, " ") != want {
			t.Errorf("ldlp: passes = %v, want %s", got, want)
		}
		if at[0] != b.rx.device.Index() || at[1] != b.rx.tcpin.Index() {
			t.Errorf("ldlp: passes recorded under layers %v, want device and tcp", at)
		}
		checkNoLeaks(t)
	}
}

// TestTelemetryRecordsDrops corrupts an IP header so the receive path
// rejects it, and checks the drop shows up as an EvDrop event carrying
// the layer index and decoded reason.
func TestTelemetryRecordsDrops(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	sa, err := a.UDPSocket(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sa.SendTo(ipB, 7, []byte("nobody home"))
	n.RunUntilIdle()

	snap := b.Snapshot().Telemetry
	found := false
	for _, tr := range snap.Tracers {
		for _, ev := range tr.Events {
			if ev.Kind == telemetry.EvDrop && telemetry.DropReason(ev.Arg) == telemetry.DropNoSocket {
				found = true
				// The event keeps the index of the layer that rejected;
				// udp is an entry layer, so it resolves to its group-pass name.
				if int(ev.Layer) != b.rx.udpin.Index() || tr.LayerName(int(ev.Layer)) != "udp+socket" {
					t.Errorf("drop recorded at layer %d %q, want udp's index and udp+socket", ev.Layer, tr.LayerName(int(ev.Layer)))
				}
			}
		}
	}
	if !found {
		t.Error("no EvDrop/no-socket event recorded for an unbound port")
	}
	checkNoLeaks(t)
}

// TestTelemetryDisabledRecordsNothing flips the global gate off and
// re-runs traffic: counters still count (leak accounting must always
// work) but rings and histograms stay empty.
func TestTelemetryDisabledRecordsNothing(t *testing.T) {
	prev := telemetry.Enable(false)
	defer telemetry.Enable(prev)

	n, a, b := twoHosts(t, core.LDLP)
	sb, err := b.UDPSocket(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sa, err := a.UDPSocket(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sa.SendTo(ipB, 7, []byte("quiet"))
	n.RunUntilIdle()
	if sb.Pending() != 1 {
		t.Fatalf("delivered %d datagrams, want 1", sb.Pending())
	}
	if b.Snapshot().Counters.FramesIn == 0 {
		t.Error("plain counters must keep counting with telemetry off")
	}

	snap := b.Snapshot().Telemetry
	for _, tr := range snap.Tracers {
		if tr.Recorded != 0 {
			t.Errorf("tracer %s recorded %d events with telemetry disabled", tr.Label, tr.Recorded)
		}
	}
	for _, e := range snap.Hists {
		if e.Hist.Count != 0 {
			t.Errorf("hist %s observed %d values with telemetry disabled", e.Name, e.Hist.Count)
		}
	}
	checkNoLeaks(t)
}

// TestTelemetryShardedSnapshot runs the multi-core engine and checks
// every shard tracer that processed frames contributed events, stamped
// by the Net's simulated clock as the workers read it.
func TestTelemetryShardedSnapshot(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	defer n.Close()
	b := n.AddHost("b", ipB, ShardedOptions(2))
	a := n.AddHost("a", ipA, DefaultOptions(core.LDLP))
	sb, err := b.UDPSocket(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sa, err := a.UDPSocket(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	n.Tick(0.5)
	for i := 0; i < 32; i++ {
		sa.SendTo(ipB, 7, []byte{byte(i)})
	}
	n.RunUntilIdle()

	snap := b.Snapshot().Telemetry
	var recorded uint64
	for _, tr := range snap.Tracers {
		recorded += tr.Recorded
		for _, ev := range tr.Events {
			if ev.TS != 5e8 {
				t.Fatalf("event ts = %d, want the simulated clock's 0.5 s", ev.TS)
			}
		}
	}
	if recorded == 0 {
		t.Error("sharded host recorded no events")
	}
	if bh, ok := snap.Hist("ldlp-batch"); !ok || bh.Sum != 32 {
		t.Errorf("ldlp-batch sum = %+v, want 32 messages across shards", bh)
	}
	checkNoLeaks(t)
}
