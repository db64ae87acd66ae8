package netstack

import (
	"bytes"
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// udpRig is one receiving host behind a carrier, with the wire bytes of
// a datagram addressed to its socket captured from a real sender: what
// the UDP hot-path tests and BenchmarkHotPathInjectUDP replay.
type udpRig struct {
	net   *Net
	b     *Host
	sock  *UDPSock
	frame []byte
}

func newUDPRig(tb testing.TB, opts Options, payload []byte) *udpRig {
	tb.Helper()
	mbuf.ResetPool()
	r := &udpRig{net: NewNet()}
	r.net.SetCarrier(func(_ layers.MACAddr, m *mbuf.Mbuf) {
		r.frame = bytes.Clone(m.Contiguous())
		m.FreeChain()
	})
	a := r.net.AddHost("a", ipA, DefaultOptions(core.Conventional))
	r.b = r.net.AddHost("b", ipB, opts)
	sa, err := a.UDPSocket(1000)
	if err != nil {
		tb.Fatal(err)
	}
	if r.sock, err = r.b.UDPSocket(2000); err != nil {
		tb.Fatal(err)
	}
	sa.SendTo(ipB, 2000, payload)
	if r.frame == nil {
		tb.Fatal("carrier saw no frame")
	}
	return r
}

// cycle injects the captured frame, pumps, and receives it.
func (r *udpRig) cycle() (Datagram, bool) {
	r.b.InjectFrame(r.b.FrameFromBytes(r.frame))
	r.b.Pump()
	return r.sock.Recv()
}

// The steady-state UDP receive path — inject, decode, checksum, demux,
// copy into the socket's slot, Recv — allocates nothing, under either
// discipline and on the sharded engine.
func TestUDPReceivePathAllocFree(t *testing.T) {
	payload := []byte("twenty-four byte payload")
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"conventional", DefaultOptions(core.Conventional)},
		{"ldlp", DefaultOptions(core.LDLP)},
		{"rxshards=2", ShardedOptions(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newUDPRig(t, tc.opts, payload)
			defer r.net.Close()
			for i := 0; i < 64; i++ { // warm pools, engine queues, the slot
				r.cycle()
			}
			var bad string
			allocs := testing.AllocsPerRun(200, func() {
				if d, ok := r.cycle(); !ok || !bytes.Equal(d.Data, payload) || d.Src != ipA || d.SrcPort != 1000 {
					bad = fmt.Sprintf("ok=%v %+v", ok, d)
				}
			})
			if bad != "" {
				t.Fatalf("wrong datagram: %s", bad)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per inject → Pump → Recv, want 0", allocs)
			}
			checkNoLeaks(t)
		})
	}
}

// Data from Recv is the socket's, valid until the host is next pumped:
// later Recvs in the same drain and a SendTo leave it alone, and the
// pump after that refills the same slot.
func TestUDPRecvDataLifetime(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	want := [][]byte{[]byte("first"), []byte("second, longer"), []byte("3rd")}
	for _, p := range want {
		sa.SendTo(ipB, 2, p)
	}
	n.RunUntilIdle()
	var got []Datagram
	for {
		d, ok := sb.Recv()
		if !ok {
			break
		}
		got = append(got, d)
	}
	sb.SendTo(ipA, 1, []byte("reply"))
	if len(got) != len(want) {
		t.Fatalf("received %d datagrams, want %d", len(got), len(want))
	}
	for i, d := range got {
		if !bytes.Equal(d.Data, want[i]) {
			t.Errorf("datagram %d read %q after the drain, want %q", i, d.Data, want[i])
		}
	}

	// Drained, so the queue restarts at slot 0 with slot 0's buffer.
	sa.SendTo(ipB, 2, []byte("again"))
	n.RunUntilIdle()
	d, ok := sb.Recv()
	if !ok || string(d.Data) != "again" {
		t.Fatalf("after refill: %q, %v", d.Data, ok)
	}
	if &d.Data[0] != &got[0].Data[0] {
		t.Error("a drained queue did not reuse slot 0's buffer")
	}
	checkNoLeaks(t)
}

// Slots exist only for the deepest backlog seen: a reader that keeps up
// never grows the queue, and one that always leaves a datagram behind
// has the consumed slots rotated back under it instead of walking the
// array forever.
func TestUDPQueueSlotsAreDepthBounded(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	msg := func(i int) []byte { return []byte(fmt.Sprintf("dgram-%05d", i)) }

	for i := 0; i < 10000; i++ {
		sa.SendTo(ipB, 2, msg(i))
		n.RunUntilIdle()
		if d, ok := sb.Recv(); !ok || !bytes.Equal(d.Data, msg(i)) {
			t.Fatalf("datagram %d: %q, %v", i, d.Data, ok)
		}
	}
	if c := cap(sb.queue); c > 2 {
		t.Errorf("one-at-a-time traffic grew the queue to %d slots", c)
	}

	// Backlog of three that never drains: in order, intact, bounded.
	next := 0
	for ; next < 3; next++ {
		sa.SendTo(ipB, 2, msg(next))
	}
	n.RunUntilIdle()
	for i := 0; i < 10000; i++ {
		d, ok := sb.Recv()
		if !ok || !bytes.Equal(d.Data, msg(i)) {
			t.Fatalf("backlogged datagram %d: %q, %v", i, d.Data, ok)
		}
		sa.SendTo(ipB, 2, msg(next))
		next++
		n.RunUntilIdle()
	}
	if sb.Pending() != 3 {
		t.Errorf("pending = %d, want 3", sb.Pending())
	}
	if c := cap(sb.queue); c > 16 {
		t.Errorf("a backlog of 3 grew the queue to %d slots", c)
	}
	checkNoLeaks(t)
}

// The datagram that finds the queue full is dropped before it is
// copied: counted once, one reason-coded event, nothing queued touched.
func TestUDPFullQueueDropsBeforeCopy(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	sb.QueueLimit = 4
	msg := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 20+i) }
	for i := 0; i <= sb.QueueLimit; i++ {
		sa.SendTo(ipB, 2, msg(i))
	}
	n.RunUntilIdle()

	if got := sb.DroppedCount(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	events := 0
	for _, tr := range b.Snapshot().Telemetry.Tracers {
		for _, ev := range tr.Events {
			if ev.Kind == telemetry.EvDrop && telemetry.DropReason(ev.Arg) == telemetry.DropSockBuffer {
				events++
			}
		}
	}
	if events != 1 {
		t.Errorf("%d DropSockBuffer events, want exactly 1", events)
	}
	if sb.Pending() != sb.QueueLimit {
		t.Errorf("pending = %d, want %d", sb.Pending(), sb.QueueLimit)
	}
	for i := 0; i < sb.QueueLimit; i++ {
		if d, ok := sb.Recv(); !ok || !bytes.Equal(d.Data, msg(i)) {
			t.Errorf("queued datagram %d: %q, %v", i, d.Data, ok)
		}
	}
	checkNoLeaks(t)
}

// A reorder verdict counts its span from the head of the wire, not from
// the start of the backing array the head has already moved along.
func TestWireReorderInsertIsHeadRelative(t *testing.T) {
	n, _, b := twoHosts(t, core.Conventional)
	inj := faults.New(faults.Config{ReorderProb: 1, ReorderSpan: 1}, 1)
	mk := func(tag byte) frame { return frame{dst: b.mac, m: mbuf.FromBytes([]byte{tag})} }
	// Two frames already popped, three in flight behind them.
	n.wire = []frame{{}, {}, mk('x'), mk('y'), mk('z')}
	n.wireHead = 2

	if n.impairFrame(inj, mk('f'), b) {
		t.Fatal("reordered frame was delivered immediately")
	}
	var order []byte
	for _, f := range n.wire[n.wireHead:] {
		order = append(order, f.m.Contiguous()[0])
	}
	if string(order) != "xfyz" {
		t.Errorf("wire after a span-1 reorder = %q, want %q", order, "xfyz")
	}
	if n.wire[0].m != nil || n.wire[1].m != nil {
		t.Error("reorder insert wrote into the consumed slots")
	}
	n.Close()
	checkNoLeaks(t)
}
