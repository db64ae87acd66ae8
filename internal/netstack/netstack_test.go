package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

var (
	ipA = layers.IPAddr{10, 0, 0, 1}
	ipB = layers.IPAddr{10, 0, 0, 2}
)

func twoHosts(t *testing.T, d core.Discipline) (*Net, *Host, *Host) {
	t.Helper()
	mbuf.ResetPool()
	n := NewNet()
	a := n.AddHost("a", ipA, DefaultOptions(d))
	b := n.AddHost("b", ipB, DefaultOptions(d))
	return n, a, b
}

func checkNoLeaks(t *testing.T) {
	t.Helper()
	if s := mbuf.PoolStats(); s.InUse != 0 {
		t.Errorf("mbuf leak: %+v", s)
	}
}

func TestUDPEchoConventional(t *testing.T) {
	testUDPEcho(t, core.Conventional)
}

func TestUDPEchoLDLP(t *testing.T) {
	testUDPEcho(t, core.LDLP)
}

func testUDPEcho(t *testing.T, d core.Discipline) {
	n, a, b := twoHosts(t, d)
	sa, err := a.UDPSocket(1000)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.UDPSocket(2000)
	if err != nil {
		t.Fatal(err)
	}

	sa.SendTo(ipB, 2000, []byte("ping"))
	n.RunUntilIdle()

	dg, ok := sb.Recv()
	if !ok {
		t.Fatal("server received nothing")
	}
	if string(dg.Data) != "ping" || dg.Src != ipA || dg.SrcPort != 1000 {
		t.Fatalf("got %+v", dg)
	}

	sb.SendTo(dg.Src, dg.SrcPort, []byte("pong"))
	n.RunUntilIdle()
	reply, ok := sa.Recv()
	if !ok || string(reply.Data) != "pong" {
		t.Fatalf("echo reply: %v %q", ok, reply.Data)
	}
	checkNoLeaks(t)
}

func TestUDPBigDatagramSpansClusters(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	payload := make([]byte, 1400)
	rand.New(rand.NewSource(1)).Read(payload)
	sa.SendTo(ipB, 2, payload)
	n.RunUntilIdle()
	dg, ok := sb.Recv()
	if !ok || !bytes.Equal(dg.Data, payload) {
		t.Fatal("large datagram corrupted")
	}
	checkNoLeaks(t)
}

func TestUDPNoSocketCounted(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	sa, _ := a.UDPSocket(1)
	sa.SendTo(ipB, 9999, []byte("nobody home"))
	n.RunUntilIdle()
	if b.Snapshot().Counters.NoSocket != 1 {
		t.Errorf("NoSocket = %d, want 1", b.Snapshot().Counters.NoSocket)
	}
	checkNoLeaks(t)
}

func TestUDPQueueLimitDrops(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	sb.QueueLimit = 3
	for i := 0; i < 5; i++ {
		sa.SendTo(ipB, 2, []byte{byte(i)})
	}
	n.RunUntilIdle()
	if sb.Pending() != 3 || sb.DroppedCount() != 2 {
		t.Errorf("pending %d dropped %d, want 3/2", sb.Pending(), sb.DroppedCount())
	}
	checkNoLeaks(t)
}

func TestPortInUse(t *testing.T) {
	_, a, _ := twoHosts(t, core.Conventional)
	if _, err := a.UDPSocket(7); err != nil {
		t.Fatal(err)
	}
	if _, err := a.UDPSocket(7); err == nil {
		t.Error("duplicate UDP bind should fail")
	}
	if _, err := a.ListenTCP(7); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ListenTCP(7); err == nil {
		t.Error("duplicate TCP listen should fail")
	}
}

// Ephemeral ports belong to the host: what one host is handed does not
// depend on another's dials, the counter stays inside 32768–65535 however
// long the host lives, and it steps over a port still in use toward the
// same remote.
func TestEphemeralPortsArePerHostAndWrapInRange(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	if _, err := b.ListenTCP(80); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ListenTCP(80); err != nil {
		t.Fatal(err)
	}
	keep := a.DialTCP(ipB, 80) // stays open throughout
	other := b.DialTCP(ipA, 80)
	if pa, pb := keep.pcb.tuple.lport, other.pcb.tuple.lport; pa != pb || pa < 32768 {
		t.Fatalf("first ports %d and %d, want the same port from 32768 up on both hosts", pa, pb)
	}
	n.RunUntilIdle()
	seen := 0
	for i := 0; i < 40000; i++ {
		s := a.DialTCP(ipB, 80)
		port := s.pcb.tuple.lport
		if port < 32768 {
			t.Fatalf("dial %d got port %d, below the ephemeral range", i, port)
		}
		if port == keep.pcb.tuple.lport {
			t.Fatalf("dial %d was handed port %d, which a live connection holds", i, port)
		}
		if port == keep.pcb.tuple.lport+1 {
			seen++
		}
		s.Close() // SYN-SENT: torn down at once, the port is free again
		n.RunUntilIdle()
	}
	if seen != 2 {
		t.Errorf("the port after the live one came up %d times in 40 000 dials, want 2 (one wrap)", seen)
	}
	if !keep.Established() || a.findPCB(keep.pcb.tuple) != keep.pcb {
		t.Error("the live connection was disturbed")
	}
}

// With a connection on every ephemeral port toward one remote, the next
// dial fails cleanly instead of searching forever or reusing a tuple.
func TestDialTCPWithEveryPortTaken(t *testing.T) {
	n, a, _ := twoHosts(t, core.Conventional)
	defer n.Close() // 32 769 SYNs are still queued for transmission
	for i := 0; i < 1<<15; i++ {
		if s := a.DialTCP(ipB, 80); s.Err() != nil {
			t.Fatalf("dial %d: %v", i, s.Err())
		}
	}
	s := a.DialTCP(ipB, 80)
	if s.Err() != ErrPortInUse || s.State() != "closed" || s.Send([]byte("x")) != ErrPortInUse {
		t.Errorf("dial with no port left: err %v, state %s", s.Err(), s.State())
	}
	if got := a.numPCBs(); got != 1<<15 {
		t.Errorf("%d PCBs, want the %d live ones", got, 1<<15)
	}
	if s2 := a.DialTCP(ipB, 81); s2.Err() != nil {
		t.Errorf("dial to another port of the same remote: %v", s2.Err())
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		n, a, b := twoHosts(t, d)
		l, err := b.ListenTCP(80)
		if err != nil {
			t.Fatal(err)
		}
		cli := a.DialTCP(ipB, 80)
		n.RunUntilIdle()
		if !cli.Established() {
			t.Fatalf("[%v] client state %s after handshake", d, cli.State())
		}
		srv := l.Accept()
		if srv == nil {
			t.Fatalf("[%v] no accepted connection", d)
		}

		if err := cli.Send([]byte("hello over tcp")); err != nil {
			t.Fatal(err)
		}
		n.RunUntilIdle()
		buf := make([]byte, 100)
		nr := srv.Recv(buf)
		if string(buf[:nr]) != "hello over tcp" {
			t.Fatalf("[%v] server got %q", d, buf[:nr])
		}

		// Server responds.
		srv.Send([]byte("and back"))
		n.RunUntilIdle()
		nr = cli.Recv(buf)
		if string(buf[:nr]) != "and back" {
			t.Fatalf("[%v] client got %q", d, buf[:nr])
		}
		checkNoLeaks(t)
	}
}

func TestTCPBulkTransferAndSegmentation(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	payload := make([]byte, 20000) // > 13 MSS segments
	rand.New(rand.NewSource(2)).Read(payload)
	cli.Send(payload)
	n.RunUntilIdle()
	n.Tick(0.05) // flush delayed ACKs
	var got []byte
	buf := make([]byte, 4096)
	for {
		nr := srv.Recv(buf)
		if nr == 0 {
			break
		}
		got = append(got, buf[:nr]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk transfer corrupted: %d bytes vs %d", len(got), len(payload))
	}
	if b.Snapshot().Counters.DataSegsIn < 13 {
		t.Errorf("segments in = %d, want >= 13 (MSS segmentation)", b.Snapshot().Counters.DataSegsIn)
	}
	checkNoLeaks(t)
}

func TestDelayedAckEverySecondSegment(t *testing.T) {
	// The paper's trace: "this TCP implementation sends an ACK for every
	// second data packet".
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	_ = l.Accept()

	before := b.Snapshot().Counters.AcksSent
	// Send 8 separate MSS-sized pushes -> 8 data segments -> ~4 ACKs.
	for i := 0; i < 8; i++ {
		cli.Send(make([]byte, tcpMSS))
		n.RunUntilIdle()
	}
	acks := b.Snapshot().Counters.AcksSent - before
	if acks != 4 {
		t.Errorf("acks for 8 data segments = %d, want 4 (every 2nd)", acks)
	}
	if b.Snapshot().Counters.TCPFastPath < 6 {
		t.Errorf("fast path hits = %d, want most of 8 in-order segments", b.Snapshot().Counters.TCPFastPath)
	}
}

func TestDelayedAckTimerFlushesOddSegment(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	_ = l.Accept()

	before := b.Snapshot().Counters.DelayedAcks
	cli.Send([]byte("one lonely segment"))
	n.RunUntilIdle()
	n.Tick(0.01)
	if b.Snapshot().Counters.DelayedAcks != before+1 {
		t.Errorf("delayed-ack timer fired %d times, want 1", b.Snapshot().Counters.DelayedAcks-before)
	}
}

func TestPCBSingleEntryCache(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	base := b.Snapshot().Flows
	for i := 0; i < 10; i++ {
		cli.Send([]byte("x"))
		n.RunUntilIdle()
		n.Tick(0.01)
	}
	fs := b.Snapshot().Flows
	if hits := fs.CacheHits - base.CacheHits; hits < 8 {
		t.Errorf("PCB cache hits = %d over 10 in-order segments, want nearly all", hits)
	}
	if misses := fs.CacheMisses - base.CacheMisses; misses != 0 {
		t.Errorf("PCB cache missed %d times on its one connection, want 0", misses)
	}
	segs := b.Snapshot().Shards[0].TCPSegs
	if fs.CacheHits+fs.CacheMisses != segs || fs.CacheHitRate <= 0.5 {
		t.Errorf("hits %d + misses %d over %d segments, hit rate %v", fs.CacheHits, fs.CacheMisses, segs, fs.CacheHitRate)
	}
	if b.tshards[0].last != srv.pcb {
		t.Error("the cached PCB is not the connection's")
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	_ = l.Accept()

	// Drop the next data-bearing frame to B exactly once.
	dropped := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipB && len(data) > 60 && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	cli.Send([]byte("must arrive eventually"))
	n.RunUntilIdle()
	buf := make([]byte, 100)
	if nr := cli.pcb.host.name; nr == "" {
		t.Fatal("unreachable")
	}
	srv := b.findPCB(fourTuple{raddr: ipA, rport: cli.pcb.tuple.lport, lport: 80})
	if srv == nil {
		t.Fatal("server pcb missing")
	}
	if srv.rcv.len() != 0 {
		t.Fatal("data arrived despite loss")
	}
	// Fire the retransmit timer.
	for i := 0; i < 5 && srv.rcv.len() == 0; i++ {
		n.Tick(0.25)
	}
	if a.Snapshot().Counters.Retransmits == 0 {
		t.Error("no retransmission recorded")
	}
	nrec := copy(buf, srv.rcv.bytes())
	if string(buf[:nrec]) != "must arrive eventually" {
		t.Errorf("after retransmit got %q", buf[:nrec])
	}
	checkNoLeaks(t)
}

func TestTCPCloseHandshake(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	cli.Close()
	n.RunUntilIdle()
	if srv.State() != "close-wait" {
		t.Errorf("server state after FIN = %s, want close-wait", srv.State())
	}
	srv.Close()
	n.RunUntilIdle()
	if got := srv.State(); got != "closed" {
		t.Errorf("server final state = %s", got)
	}
	if err := cli.Send([]byte("late")); err == nil {
		t.Error("send on closed socket should fail")
	}
}

func TestFlowControlWindowStallsSender(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	// Send more than the 64 KB window without the receiver reading.
	payload := make([]byte, 100000)
	cli.Send(payload)
	n.RunUntilIdle()
	n.Tick(0.01)
	if got := srv.Buffered(); got > tcpWindow {
		t.Errorf("receiver buffered %d > advertised window %d", got, tcpWindow)
	}
	if cli.pcb.inFlight() > tcpWindow {
		t.Errorf("in flight %d exceeds window", cli.pcb.inFlight())
	}
	// Draining the receiver opens the window and the rest flows.
	buf := make([]byte, 8192)
	total := 0
	for i := 0; i < 200; i++ {
		nr := srv.Recv(buf)
		total += nr
		if total >= len(payload) {
			break
		}
		n.Tick(0.3)
	}
	if total != len(payload) {
		t.Errorf("received %d of %d after window reopened", total, len(payload))
	}
}

func TestBadFramesCounted(t *testing.T) {
	n, _, b := twoHosts(t, core.Conventional)

	// Runt frame.
	n.send(frame{dst: b.mac, m: mbuf.FromBytes([]byte{1, 2, 3})})
	// Wrong ethertype.
	badType := make([]byte, 60)
	eth := layers.Ethernet{Dst: b.mac, Src: MACFor(ipA), EtherType: layers.EtherTypeARP}
	eth.Encode(badType)
	n.send(frame{dst: b.mac, m: mbuf.FromBytes(badType)})
	// Corrupt IP checksum.
	good := make([]byte, layers.EthernetLen+layers.IPv4MinLen)
	eth.EtherType = layers.EtherTypeIPv4
	eth.Encode(good)
	iph := layers.IPv4{TotalLen: 20, TTL: 64, Protocol: layers.ProtoUDP, Src: ipA, Dst: ipB}
	iph.Encode(good[layers.EthernetLen:])
	good[layers.EthernetLen+8] ^= 0xff
	n.send(frame{dst: b.mac, m: mbuf.FromBytes(good)})
	n.RunUntilIdle()

	if b.Snapshot().Counters.BadEther != 2 {
		t.Errorf("BadEther = %d, want 2", b.Snapshot().Counters.BadEther)
	}
	if b.Snapshot().Counters.BadIP != 1 {
		t.Errorf("BadIP = %d, want 1", b.Snapshot().Counters.BadIP)
	}
	checkNoLeaks(t)
}

func TestFragmentsCountedNotCrashed(t *testing.T) {
	n, _, b := twoHosts(t, core.Conventional)
	buf := make([]byte, layers.EthernetLen+layers.IPv4MinLen+8)
	eth := layers.Ethernet{Dst: b.mac, Src: MACFor(ipA), EtherType: layers.EtherTypeIPv4}
	eth.Encode(buf)
	iph := layers.IPv4{TotalLen: 28, TTL: 64, Protocol: layers.ProtoUDP, Flags: 0x1, Src: ipA, Dst: ipB}
	iph.Encode(buf[layers.EthernetLen:])
	n.send(frame{dst: b.mac, m: mbuf.FromBytes(buf)})
	n.RunUntilIdle()
	if b.Snapshot().Counters.Fragments != 1 {
		t.Errorf("Fragments = %d, want 1", b.Snapshot().Counters.Fragments)
	}
	checkNoLeaks(t)
}

func TestLDLPBatchingOnBurst(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	for i := 0; i < 40; i++ {
		sa.SendTo(ipB, 2, []byte{byte(i)})
	}
	n.RunUntilIdle()
	if sb.Pending() != 40 {
		t.Fatalf("pending = %d, want 40", sb.Pending())
	}
	st := b.Snapshot().Stack
	if st.LargestBatch < 10 {
		t.Errorf("largest LDLP batch = %d, want a real burst batch", st.LargestBatch)
	}
	if st.LargestBatch > 14 {
		t.Errorf("largest batch = %d exceeds the device batch limit", st.LargestBatch)
	}
	checkNoLeaks(t)
}

func TestInputLimitDropTail(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	a := n.AddHost("a", ipA, DefaultOptions(core.Conventional))
	opts := DefaultOptions(core.LDLP)
	opts.InputLimit = 10
	b := n.AddHost("b", ipB, opts)
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	for i := 0; i < 30; i++ {
		sa.SendTo(ipB, 2, []byte{byte(i)})
	}
	// Deliver frames without letting b process: drive the wire manually.
	n.RunUntilIdle()
	// With processing interleaved the limit may never be hit; force a
	// burst by sending again with processing suppressed via direct
	// deliveries.
	for i := 0; i < 30; i++ {
		b.deliver(mbuf.FromBytes(make([]byte, 60))) // garbage frames, queued then rejected
	}
	if dropped := b.Snapshot().Stack.Dropped; dropped < 20 {
		t.Errorf("stack dropped %d of 30 over-limit frames, want >= 20", dropped)
	}
	if got := sb.Pending(); got > 40 {
		t.Errorf("socket somehow saw %d datagrams", got)
	}
	n.RunUntilIdle() // drain what was admitted before leak accounting
	checkNoLeaks(t)
}

func TestDuplicateIPPanics(t *testing.T) {
	n := NewNet()
	n.AddHost("a", ipA, DefaultOptions(core.Conventional))
	defer func() {
		if recover() == nil {
			t.Error("duplicate IP should panic")
		}
	}()
	n.AddHost("a2", ipA, DefaultOptions(core.Conventional))
}

func TestMACForIsStable(t *testing.T) {
	if MACFor(ipA) != MACFor(ipA) {
		t.Error("MACFor must be deterministic")
	}
	if MACFor(ipA) == MACFor(ipB) {
		t.Error("distinct IPs must map to distinct MACs")
	}
}

func BenchmarkUDPRoundTrip(b *testing.B) {
	mbuf.ResetPool()
	n := NewNet()
	ha := n.AddHost("a", ipA, DefaultOptions(core.Conventional))
	hb := n.AddHost("b", ipB, DefaultOptions(core.Conventional))
	sa, _ := ha.UDPSocket(1)
	sb, _ := hb.UDPSocket(2)
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.SendTo(ipB, 2, payload)
		n.RunUntilIdle()
		if dg, ok := sb.Recv(); ok {
			_ = dg
		}
	}
}

func BenchmarkTCPSegmentIn(b *testing.B) {
	mbuf.ResetPool()
	n := NewNet()
	ha := n.AddHost("a", ipA, DefaultOptions(core.Conventional))
	hb := n.AddHost("b", ipB, DefaultOptions(core.Conventional))
	l, _ := hb.ListenTCP(80)
	cli := ha.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()
	payload := make([]byte, 512)
	buf := make([]byte, 4096)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Send(payload)
		n.RunUntilIdle()
		for srv.Recv(buf) > 0 {
		}
	}
}
