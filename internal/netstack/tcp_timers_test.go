package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

func TestPersistProbeRecoversLostWindowUpdate(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	// Fill the receiver's window completely.
	payload := make([]byte, 100000)
	cli.Send(payload)
	n.RunUntilIdle()
	n.Tick(0.01)
	if cli.pcb.sndWnd > 0 && cli.pcb.snd.len() == int(cli.pcb.sndSent) {
		t.Skip("window never closed; nothing to probe")
	}

	// The receiver drains, but its window-update ACK is lost.
	lose := true
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipA && lose {
			lose = false
			return true
		}
		return false
	}
	buf := make([]byte, tcpWindow)
	srv.Recv(buf) // triggers (and loses) the window update
	n.RunUntilIdle()

	if cli.pcb.sndWnd > 0 {
		t.Fatal("sender already saw the window reopen; loss injection failed")
	}
	// The persist timer must unstick the connection.
	n.Loss = nil
	total := tcpWindow
	for i := 0; i < 400 && total < len(payload); i++ {
		n.Tick(0.6)
		for {
			nr := srv.Recv(buf)
			if nr == 0 {
				break
			}
			total += nr
		}
	}
	if total != len(payload) {
		t.Errorf("received %d of %d after persist probing", total, len(payload))
	}
	if a.Snapshot().Counters.WindowProbes == 0 {
		t.Error("no window probes recorded")
	}
}

func TestTimeWaitHoldsThenReaps(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	cli.Close()
	n.RunUntilIdle()
	srv.Close()
	n.RunUntilIdle()

	if cli.State() != "time-wait" {
		t.Fatalf("active closer state = %s, want time-wait", cli.State())
	}
	if a.findPCB(cli.pcb.tuple) == nil {
		t.Fatal("TIME-WAIT pcb should still be tracked")
	}
	// Before 2MSL: still present. After: reaped.
	n.Tick(0.4)
	if cli.State() != "time-wait" {
		t.Errorf("state after 0.4s = %s, want time-wait (2MSL=1s)", cli.State())
	}
	n.Tick(1.0)
	if cli.State() != "closed" {
		t.Errorf("state after 2MSL = %s, want closed", cli.State())
	}
	if a.findPCB(cli.pcb.tuple) != nil {
		t.Error("pcb not reaped after 2MSL")
	}
}

func TestTimeWaitReAcksRetransmittedFin(t *testing.T) {
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	// Lose the client's final ACK of the server's FIN, so the server
	// retransmits its FIN into the client's TIME-WAIT.
	cli.Close()
	n.RunUntilIdle() // client FIN-WAIT-2, server CLOSE-WAIT
	lost := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipB && lost == 0 {
			lost++
			return true
		}
		return false
	}
	srv.Close() // server FIN; client's ACK will be dropped
	n.RunUntilIdle()
	n.Loss = nil
	if cli.State() != "time-wait" {
		t.Fatalf("client state = %s, want time-wait", cli.State())
	}
	if srv.State() != "last-ack" {
		t.Fatalf("server state = %s, want last-ack (its FIN unACKed)", srv.State())
	}
	// Server's RTO fires, retransmits FIN; client re-ACKs from TIME-WAIT.
	n.Tick(0.25)
	n.Tick(0.25)
	if srv.State() != "closed" {
		t.Errorf("server state after FIN retransmit = %s, want closed", srv.State())
	}
}

func TestListenerBacklogLimit(t *testing.T) {
	n := NewNet()
	srvHost := n.AddHost("srv", ipB, DefaultOptions(core.Conventional))
	l, _ := srvHost.ListenTCP(80)
	// More dialers than the backlog allows.
	for i := 0; i < tcpBacklog+5; i++ {
		h := n.AddHost("c", layers.IPAddr{10, 5, 0, byte(i + 1)}, DefaultOptions(core.Conventional))
		h.DialTCP(ipB, 80)
	}
	n.RunUntilIdle()
	if l.DroppedCount() != 5 {
		t.Errorf("backlog drops = %d, want 5", l.DroppedCount())
	}
	accepted := 0
	for l.Accept() != nil {
		accepted++
	}
	if accepted != tcpBacklog {
		t.Errorf("accepted = %d, want %d", accepted, tcpBacklog)
	}
}

func TestHalfCloseStillDeliversData(t *testing.T) {
	// Client closes its sending side (FIN); the server may keep sending —
	// the classic half-close. Our client in FIN-WAIT-2 must still accept
	// and deliver data.
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	cli.Close()
	n.RunUntilIdle()
	if cli.State() != "fin-wait-2" {
		t.Fatalf("client state = %s, want fin-wait-2", cli.State())
	}
	if srv.State() != "close-wait" {
		t.Fatalf("server state = %s, want close-wait", srv.State())
	}
	// Server sends into the half-open connection.
	if err := srv.Send([]byte("parting words")); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	buf := make([]byte, 64)
	nr := cli.Recv(buf)
	if string(buf[:nr]) != "parting words" {
		t.Errorf("half-close delivery = %q", buf[:nr])
	}
	srv.Close()
	n.RunUntilIdle()
	n.Tick(2.5)
	if cli.State() != "closed" || srv.State() != "closed" {
		t.Errorf("final states: %s / %s", cli.State(), srv.State())
	}
}

func TestSimultaneousClose(t *testing.T) {
	// Both ends close before seeing the other's FIN: both sides are in
	// FIN-WAIT-1 when the crossing FINs arrive, and both must reach
	// closed via TIME-WAIT without deadlock.
	n, a, b := twoHosts(t, core.Conventional)
	l, _ := b.ListenTCP(80)
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()

	// Close both ends without pumping in between: the FINs cross.
	cli.Close()
	srv.Close()
	n.RunUntilIdle()
	okStates := map[string]bool{"time-wait": true, "closed": true}
	if !okStates[cli.State()] || !okStates[srv.State()] {
		t.Fatalf("after crossing FINs: %s / %s", cli.State(), srv.State())
	}
	n.Tick(1.5)
	n.Tick(1.5)
	if cli.State() != "closed" || srv.State() != "closed" {
		t.Errorf("final states: %s / %s", cli.State(), srv.State())
	}
	if a.numPCBs() != 0 || b.numPCBs() != 0 {
		t.Errorf("pcbs leaked: %d / %d", a.numPCBs(), b.numPCBs())
	}
	checkNoLeaks(t)
}

// The send queue is the retransmission queue: the tests below pin what
// that must preserve — a retransmitted segment is the segment first
// sent, byte for byte, whatever has been acknowledged or written since.

// established returns a connected pair on two hosts built with opts:
// cli dialled from a, srv accepted on b.
func established(t testing.TB, opts Options) (n *Net, a *Host, cli, srv *TCPSock) {
	t.Helper()
	mbuf.ResetPool()
	n = NewNet()
	a = n.AddHost("a", ipA, opts)
	l, err := n.AddHost("b", ipB, opts).ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	cli = a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	if srv = l.Accept(); srv == nil || !cli.Established() {
		t.Fatal("handshake failed")
	}
	return n, a, cli, srv
}

// pattern is n bytes no two 1460-byte segments of which are alike.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/251)
	}
	return p
}

// sentSeg is one data segment seen on the wire toward b.
type sentSeg struct {
	seq     uint32
	payload []byte
}

// tapData records every data segment bound for b, and drops it while
// *lose is true.
func tapData(n *Net, lose *bool) *[]sentSeg {
	const hdrs = layers.EthernetLen + layers.IPv4MinLen + layers.TCPMinLen
	var segs []sentSeg
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst != ipB || len(data) <= hdrs {
			return false
		}
		var th layers.TCP
		if _, err := th.Decode(data[layers.EthernetLen+layers.IPv4MinLen:], ipA, ipB); err != nil {
			panic(err)
		}
		segs = append(segs, sentSeg{th.Seq, append([]byte(nil), data[hdrs:]...)})
		return *lose
	}
	return &segs
}

// recvAll drains s into a fresh slice.
func recvAll(s *TCPSock) []byte {
	buf := make([]byte, s.Buffered())
	return buf[:s.Recv(buf)]
}

func TestRetransmitFromSendQueueIsByteIdentical(t *testing.T) {
	n, a, cli, srv := established(t, DefaultOptions(core.Conventional))
	lose := true
	segs := tapData(n, &lose)
	data := pattern(3 * tcpMSS)
	cli.Send(data)
	n.RunUntilIdle()
	if len(*segs) != 3 || srv.Buffered() != 0 {
		t.Fatalf("first transmission: %d segments seen, %d bytes arrived; want 3 lost", len(*segs), srv.Buffered())
	}
	first := append([]sentSeg(nil), *segs...)
	*segs = nil
	lose = false
	// More data written behind the lost segments must not disturb them.
	tail := pattern(700)
	cli.Send(tail)
	var got []byte
	for i := 0; i < 20 && len(got) < len(data)+len(tail); i++ {
		n.Tick(0.25)
		got = append(got, recvAll(srv)...)
	}
	if !bytes.Equal(got, append(data, tail...)) {
		t.Fatalf("reader got %d bytes, not the %d-byte stream sent", len(got), len(data)+len(tail))
	}
	if a.Snapshot().Counters.Retransmits < 3 {
		t.Errorf("%d retransmissions, want at least the 3 lost segments", a.Snapshot().Counters.Retransmits)
	}
	for _, f := range first {
		found := false
		for _, r := range *segs {
			if r.seq == f.seq {
				found = true
				if !bytes.Equal(r.payload, f.payload) {
					t.Errorf("segment %d retransmitted with different bytes", f.seq)
				}
			}
		}
		if !found {
			t.Errorf("segment %d never retransmitted", f.seq)
		}
	}
	n.Tick(0.01) // the tail's delayed ACK
	if q := &cli.pcb.snd; q.len() != 0 || cli.pcb.sndSent != 0 {
		t.Errorf("send queue holds %d bytes (%d sent) after everything was acknowledged", q.len(), cli.pcb.sndSent)
	}
	checkNoLeaks(t)
}

func TestPartialAckKeepsWholeSegmentQueued(t *testing.T) {
	n, a, cli, srv := established(t, DefaultOptions(core.Conventional))
	lose := true
	segs := tapData(n, &lose)
	data := pattern(1000)
	seq0 := cli.pcb.sndNxt
	cli.Send(data)
	n.RunUntilIdle()

	// The peer acknowledges the first half of the lost segment.
	a.InjectFrame(a.FrameFromBytes(buildAck(cli.pcb, ipB, ipA, seq0+500)))
	a.Pump()
	pcb := cli.pcb
	if pcb.sndUna != seq0+500 {
		t.Fatalf("sndUna = %d, want %d", pcb.sndUna, seq0+500)
	}
	if pcb.snd.len() != 1000 || pcb.sndSent != 1000 || len(pcb.unacked) != 1 {
		t.Fatalf("after half an ACK: %d bytes queued, %d sent, %d segments; want the whole segment kept", pcb.snd.len(), pcb.sndSent, len(pcb.unacked))
	}
	lose = false
	*segs = nil
	n.Tick(0.25)
	if len(*segs) != 1 || (*segs)[0].seq != seq0 || !bytes.Equal((*segs)[0].payload, data) {
		t.Fatalf("retransmission after a partial ACK: %d segments, want the original 1000 bytes at %d", len(*segs), seq0)
	}
	if got := recvAll(srv); !bytes.Equal(got, data) {
		t.Errorf("reader got %d bytes, want the 1000 sent", len(got))
	}
	n.Tick(0.01)
	if pcb.snd.len() != 0 || pcb.sndSent != 0 || len(pcb.unacked) != 0 {
		t.Errorf("after the full ACK: %d bytes queued, %d sent, %d segments", pcb.snd.len(), pcb.sndSent, len(pcb.unacked))
	}
	checkNoLeaks(t)
}

func TestZeroWindowProbeByteIsTrackedAndConsumedOnce(t *testing.T) {
	n, a, cli, srv := established(t, DefaultOptions(core.Conventional))
	data := pattern(100000)
	cli.Send(data)
	n.RunUntilIdle()
	n.Tick(0.01)
	pcb := cli.pcb
	if pcb.sndWnd != 0 || pcb.inFlight() != 0 || pcb.snd.len() != len(data)-tcpWindow {
		t.Fatalf("window not closed cleanly: wnd %d, %d in flight, %d queued", pcb.sndWnd, pcb.inFlight(), pcb.snd.len())
	}

	lose := true
	segs := tapData(n, &lose)
	n.Tick(0.6) // persist fires; the probe is lost
	if a.Snapshot().Counters.WindowProbes != 1 || len(*segs) != 1 || len((*segs)[0].payload) != 1 {
		t.Fatalf("%d probes, %d segments on the wire; want one 1-byte probe", a.Snapshot().Counters.WindowProbes, len(*segs))
	}
	if pcb.sndSent != 1 || len(pcb.unacked) != 1 || pcb.unacked[0].n != 1 || pcb.snd.len() != len(data)-tcpWindow {
		t.Fatalf("probe not tracked in place: %d sent, %d segments, %d queued", pcb.sndSent, len(pcb.unacked), pcb.snd.len())
	}
	lose = false
	n.Tick(0.25) // RTO: the probe byte again, from the queue
	if a.Snapshot().Counters.Retransmits != 1 || len(*segs) != 2 || !bytes.Equal((*segs)[1].payload, data[tcpWindow:tcpWindow+1]) || (*segs)[1].seq != (*segs)[0].seq {
		t.Fatalf("probe retransmission: %d retransmits, segments %v", a.Snapshot().Counters.Retransmits, *segs)
	}
	n.Tick(0.01) // the probe's delayed ACK
	if pcb.snd.len() != len(data)-tcpWindow-1 || pcb.sndSent != 0 {
		t.Fatalf("acknowledged probe byte: %d queued, %d sent; want it consumed exactly once", pcb.snd.len(), pcb.sndSent)
	}
	n.Loss = nil
	got := recvAll(srv)
	for i := 0; i < 50 && len(got) < len(data); i++ {
		n.Tick(0.6)
		got = append(got, recvAll(srv)...)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("reader got %d bytes, not the %d-byte stream sent", len(got), len(data))
	}
	n.RunUntilIdle() // the last Recv's window update is still queued
	checkNoLeaks(t)
}

// Neither queue may creep when it is never quite emptied: a peer that
// always leaves the last segment unacknowledged, a reader that always
// leaves a byte unread. The bound is the window, the most either queue
// is ever asked to hold here; 10 000 rounds of 2 × 300 bytes would walk
// a head index that never resets through 6 MB.
func TestQueuesDoNotCreepWhenNeverDrained(t *testing.T) {
	t.Run("send", func(t *testing.T) {
		n, a, cli, _ := established(t, DefaultOptions(core.Conventional))
		n.Loss = func(dst layers.IPAddr, _ []byte) bool { return dst == ipB } // acks are scripted below
		seg := pattern(300)
		for round := 0; round < 10000; round++ {
			cli.Send(seg)
			cli.Send(seg)
			n.RunUntilIdle()
			a.InjectFrame(a.FrameFromBytes(buildAck(cli.pcb, ipB, ipA, cli.pcb.sndNxt-uint32(len(seg)))))
			a.Pump()
			if q := &cli.pcb.snd; q.len() != len(seg) || cap(q.buf) > tcpWindow {
				t.Fatalf("round %d: %d bytes queued in a %d-byte array", round, q.len(), cap(q.buf))
			}
		}
		if !bytes.Equal(cli.pcb.snd.bytes(), seg) || len(cli.pcb.unacked) != 1 {
			t.Errorf("queue no longer holds the one unacknowledged segment")
		}
	})
	t.Run("receive", func(t *testing.T) {
		n, _, cli, srv := established(t, DefaultOptions(core.Conventional))
		msg := pattern(300)
		buf := make([]byte, 1024)
		var got []byte
		for round := 0; round < 10000; round++ {
			cli.Send(msg)
			n.RunUntilIdle()
			got = append(got, buf[:srv.Recv(buf[:srv.Buffered()-1])]...)
			if q := &srv.pcb.rcv; q.len() != 1 || cap(q.buf) > tcpWindow {
				t.Fatalf("round %d: %d bytes queued in a %d-byte array", round, q.len(), cap(q.buf))
			}
		}
		if want := bytes.Repeat(msg, 10000); !bytes.Equal(got, want[:len(want)-1]) {
			t.Errorf("read %d bytes that are not the stream sent less its last byte", len(got))
		}
		checkNoLeaks(t)
	})
}

// Property: whatever the write sizes, read sizes and losses, the bytes
// read are the bytes written.
func TestStreamSurvivesLossProperty(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		for seed := int64(1); seed <= 4; seed++ {
			n, _, cli, srv := established(t, DefaultOptions(d))
			n.Impair(ipA, faults.Config{Loss: 0.2}, seed)
			n.Impair(ipB, faults.Config{Loss: 0.2}, seed+100)
			rng := rand.New(rand.NewSource(seed))
			data := pattern(150000)
			var got []byte
			buf := make([]byte, 8192)
			for sent, step := 0, 0; len(got) < len(data); step++ {
				if step > 20000 {
					t.Fatalf("[%v seed %d] stalled at %d of %d bytes (sent %d, err %v)", d, seed, len(got), len(data), sent, cli.Err())
				}
				if k := min(1+rng.Intn(4000), len(data)-sent); k > 0 && rng.Intn(3) > 0 {
					if err := cli.Send(data[sent : sent+k]); err != nil {
						t.Fatalf("[%v seed %d] Send: %v", d, seed, err)
					}
					sent += k
				}
				n.Tick(0.05)
				got = append(got, buf[:srv.Recv(buf[:1+rng.Intn(len(buf))])]...)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("[%v seed %d] received stream differs from the one sent", d, seed)
			}
			n.Close()
		}
	}
}
