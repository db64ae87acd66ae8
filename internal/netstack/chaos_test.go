package netstack

// Chaos suite: every impairment preset crossed with every processing
// discipline and shard count, plus targeted regression tests for the
// recovery-path bugs the injector exposed (unbounded TCP retransmission,
// reassembly-state exhaustion, malformed-fragment veto) and property
// tests that corruption is always caught by a checksum before it can
// reach application data. Run with -race; the short mode trims the soak
// matrix to a CI-sized smoke.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

type chaosCombo struct {
	name   string
	disc   core.Discipline
	shards int
}

// Conventional with RxShards > 1 is rejected by construction, so the
// matrix is the three legal corners.
var chaosCombos = []chaosCombo{
	{"conventional", core.Conventional, 1},
	{"ldlp", core.LDLP, 1},
	{"ldlp-rx4", core.LDLP, 4},
}

// chaosFrame hand-crafts one Ethernet/IPv4 frame addressed to dst,
// returning the mbuf chain ready for Host.deliver. flags/fragOff are the
// raw IP fields (fragOff in bytes), so tests can forge arbitrary
// fragments, including malformed ones a well-behaved sender never emits.
func chaosFrame(src, dst layers.IPAddr, proto byte, id uint16, flags byte, fragOff int, payload []byte) *mbuf.Mbuf {
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + len(payload),
		ID:       id, TTL: 64, Protocol: proto, Src: src, Dst: dst,
		Flags: flags, FragOff: fragOff,
	}
	m := mbuf.FromBytes(payload)
	m, hdr := m.Prepend(layers.IPv4MinLen)
	ip.Encode(hdr)
	eth := layers.Ethernet{Dst: MACFor(dst), Src: MACFor(src), EtherType: layers.EtherTypeIPv4}
	m, hdr = m.Prepend(layers.EthernetLen)
	eth.Encode(hdr)
	return m
}

func TestChaosSoak(t *testing.T) {
	presets := faults.Presets()
	names := faults.PresetNames()
	if testing.Short() {
		// CI smoke: one pure-loss mix, one mutation-heavy mix, and the
		// everything-at-once mix.
		names = []string{"bernoulli", "corrupt", "all"}
	}
	for _, name := range names {
		for _, combo := range chaosCombos {
			t.Run(name+"/"+combo.name, func(t *testing.T) {
				runChaosScenario(t, presets[name], combo)
			})
		}
	}
}

// runChaosScenario drives TCP, small-UDP, and fragmented-UDP traffic
// between two hosts whose ingress links are both impaired by cfg, then
// checks the end-to-end invariants: the TCP stream arrives byte-
// identical and in order, every delivered datagram is byte-identical to
// one that was sent, every injected fault shows up in an impairment or
// drop counter, and no mbuf leaks.
func runChaosScenario(t *testing.T, cfg faults.Config, combo chaosCombo) {
	t.Helper()
	mbuf.ResetPool()
	n := NewNet()
	mkOpts := func(shards int) Options {
		o := DefaultOptions(combo.disc)
		o.MTU = 600 // small enough that TCP segments and big datagrams fragment
		o.RxShards = shards
		o.TelemetryRing = 1 << 14 // the whole run, so the drop ledger is checkable
		return o
	}
	a := n.AddHost("client", ipA, mkOpts(1))
	b := n.AddHost("server", ipB, mkOpts(combo.shards))
	t.Cleanup(n.Close)
	injs := n.ImpairAll(cfg, 0xC0FFEE)

	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	cli := a.DialTCP(ipB, 80)
	var srv *TCPSock
	for i := 0; i < 400 && srv == nil; i++ {
		n.Tick(0.05)
		srv = l.Accept()
	}
	if srv == nil {
		t.Fatalf("TCP handshake never completed (client state %s, err %v)", cli.State(), cli.Err())
	}

	const (
		uFlows   = 3
		rounds   = 40
		bigEvery = 8
		bigSize  = 2500 // 5 fragments at MTU 600
	)
	var utx, urx [uFlows]*UDPSock
	for f := 0; f < uFlows; f++ {
		if utx[f], err = a.UDPSocket(uint16(1000 + f)); err != nil {
			t.Fatal(err)
		}
		if urx[f], err = b.UDPSocket(uint16(2000 + f)); err != nil {
			t.Fatal(err)
		}
	}
	bigTx, _ := a.UDPSocket(3000)
	bigRx, _ := b.UDPSocket(3100)

	sentSmall := make(map[string]bool)
	sentBig := make(map[byte]bool)
	var gotSmall []string
	var gotBig [][]byte
	var want, got bytes.Buffer
	rbuf := make([]byte, 8192)
	drain := func() {
		for {
			nr := srv.Recv(rbuf)
			if nr == 0 {
				break
			}
			got.Write(rbuf[:nr])
		}
		for f := 0; f < uFlows; f++ {
			for {
				d, ok := urx[f].Recv()
				if !ok {
					break
				}
				gotSmall = append(gotSmall, string(d.Data))
			}
		}
		for {
			d, ok := bigRx.Recv()
			if !ok {
				break
			}
			// Checked after later pumps; d.Data is the socket's until then.
			gotBig = append(gotBig, bytes.Clone(d.Data))
		}
	}

	for r := 0; r < rounds; r++ {
		chunk := make([]byte, 300)
		for i := range chunk {
			chunk[i] = byte(r*31 + i)
		}
		want.Write(chunk)
		if err := cli.Send(chunk); err != nil {
			t.Fatalf("round %d: TCP send failed: %v", r, err)
		}
		for f := 0; f < uFlows; f++ {
			msg := fmt.Sprintf("flow%d-round%03d", f, r)
			sentSmall[msg] = true
			utx[f].SendTo(ipB, uint16(2000+f), []byte(msg))
		}
		if r%bigEvery == 0 {
			v := byte(0x40 + r/bigEvery)
			sentBig[v] = true
			bigTx.SendTo(ipB, 3100, bytes.Repeat([]byte{v}, bigSize))
		}
		n.Tick(0.05)
		drain()
	}

	// Settle: the drive phase lasted ~2s of simulated time (past every
	// preset's partition window), so from here retransmission alone must
	// complete the stream. The budget is far beyond any preset's loss
	// rate but far too short to mask a wedged connection.
	for i := 0; i < 600 && got.Len() < want.Len(); i++ {
		if cli.Err() != nil || srv.Err() != nil {
			t.Fatalf("TCP connection died under impairment: cli=%v srv=%v", cli.Err(), srv.Err())
		}
		n.Tick(0.25)
		drain()
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("TCP stream mismatch: got %d bytes, want %d, first divergence at %d", got.Len(), want.Len(), i)
	}

	// Flush: past the reassembly timeout so stale partial datagrams
	// expire, plus slack for delayed frames (and any responses they
	// provoke) to land.
	n.Tick(fragTimeout + 1)
	for i := 0; i < 4; i++ {
		n.Tick(0.5)
	}
	drain()
	if h := n.HeldFrames(); h != 0 {
		t.Errorf("%d frames still held by delay impairment after flush", h)
	}
	if fr := b.numFrags(); fr != 0 {
		t.Errorf("%d partial datagrams survived the reassembly timeout", fr)
	}

	// Datagram integrity: anything delivered must be byte-identical to
	// something sent; copies beyond the first only when duplication is on
	// (one duplicate per frame, so never more than two).
	dupLimit := 1
	if cfg.DupProb > 0 {
		dupLimit = 2
	}
	counts := make(map[string]int)
	for _, m := range gotSmall {
		if !sentSmall[m] {
			t.Errorf("datagram %q arrived but was never sent intact", m)
		}
		counts[m]++
	}
	for m, c := range counts {
		if c > dupLimit {
			t.Errorf("datagram %q delivered %d times (limit %d for this mix)", m, c, dupLimit)
		}
	}
	for _, d := range gotBig {
		if len(d) != bigSize {
			t.Errorf("reassembled datagram has %d bytes, want %d", len(d), bigSize)
			continue
		}
		v := d[0]
		if !sentBig[v] {
			t.Errorf("reassembled datagram starts with unknown marker %#x", v)
			continue
		}
		for i, x := range d {
			if x != v {
				t.Errorf("reassembled datagram corrupt at byte %d: %#x != %#x", i, x, v)
				break
			}
		}
	}

	// Fault accounting: drop attribution is exact, and every frame the
	// injector passed (originals minus drops, plus duplicates) was
	// counted in by the host — nothing vanishes without a counter.
	hosts := map[layers.IPAddr]*Host{ipA: a, ipB: b}
	for ip, inj := range injs {
		s := inj.Stats()
		if s.Dropped != s.LossDrops+s.BurstDrops+s.PartitionDrops {
			t.Errorf("%v: drop attribution broken: %+v", ip, s)
		}
		if in := hosts[ip].Snapshot().Counters.FramesIn; in != s.Frames-s.Dropped+s.Duplicated {
			t.Errorf("%v: FramesIn=%d, want frames %d - dropped %d + duplicated %d",
				ip, in, s.Frames, s.Dropped, s.Duplicated)
		}
	}
	checkDropLedger(t, a)
	checkDropLedger(t, b)
	checkNoLeaks(t)
}

// TestChaosPartitionTimesOutTCP is the regression test for unbounded
// retransmission: before tcpMaxRetries, a connection severed by a
// partition retransmitted its head segment forever, pinning the PCB and
// its send queue. Now it must give up, error the socket, and reap the
// PCB.
func TestChaosPartitionTimesOutTCP(t *testing.T) {
	n, a, b := twoHosts(t, core.LDLP)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	cli := a.DialTCP(ipB, 80)
	n.RunUntilIdle()
	srv := l.Accept()
	if srv == nil || !cli.Established() {
		t.Fatal("handshake failed on a clean link")
	}

	// Sever the link in both directions for the rest of the test.
	cut := faults.Config{Partitions: []faults.Window{{From: 0, To: 1e9}}}
	n.Impair(ipA, cut, 1)
	n.Impair(ipB, cut, 2)

	if err := cli.Send([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && cli.Err() == nil; i++ {
		n.Tick(0.5)
	}
	if cli.Err() != ErrTimeout {
		t.Fatalf("connection never gave up: err=%v state=%s retransmits=%d",
			cli.Err(), cli.State(), a.Snapshot().Counters.Retransmits)
	}
	if err := cli.Send([]byte("more")); err != ErrTimeout {
		t.Errorf("Send after timeout = %v, want ErrTimeout", err)
	}
	if pcb := cli.pcb; pcb.snd.len() != 0 || cap(pcb.snd.buf) != 0 || pcb.sndSent != 0 || pcb.unacked != nil {
		t.Errorf("timed-out connection keeps its send queue: %d bytes in a %d-byte array, %d sent, %d segments",
			pcb.snd.len(), cap(pcb.snd.buf), pcb.sndSent, len(pcb.unacked))
	}
	if got := a.numPCBs(); got != 0 {
		t.Errorf("timed-out connection still pins %d PCBs", got)
	}
	if got := a.Snapshot().Counters.TimeoutDrops; got != 1 {
		t.Errorf("TimeoutDrops = %d, want 1", got)
	}
	if got := a.Snapshot().Counters.Retransmits; got != tcpMaxRetries {
		t.Errorf("gave up after %d retransmits, want exactly %d", got, tcpMaxRetries)
	}
	checkNoLeaks(t)
}

// TestChaosFragStateCapAndEviction is the regression test for
// reassembly-state exhaustion: a flood of first-fragments with distinct
// IDs used to pin one fragState each for the full 30s timeout. The cap
// now evicts the oldest partial datagram, counting it as a reassembly
// timeout.
func TestChaosFragStateCapAndEviction(t *testing.T) {
	n, _, b := twoHosts(t, core.Conventional)
	const flood = 3 * maxFragStates
	for i := 0; i < flood; i++ {
		b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, uint16(i+1), 0x1, 0,
			bytes.Repeat([]byte{byte(i)}, 64)))
	}
	if got := b.numFrags(); got != maxFragStates {
		t.Errorf("fragment state grew to %d entries, want cap %d", got, maxFragStates)
	}
	if got := b.Snapshot().Counters.ReassemblyTimeouts; got != flood-maxFragStates {
		t.Errorf("evictions counted as %d reassembly timeouts, want %d", got, flood-maxFragStates)
	}
	n.Tick(fragTimeout + 1)
	if got := b.numFrags(); got != 0 {
		t.Errorf("%d partial datagrams survived the timeout", got)
	}
	if got := b.Snapshot().Counters.ReassemblyTimeouts; got != flood {
		t.Errorf("ReassemblyTimeouts = %d after expiry, want %d", got, flood)
	}
	checkNoLeaks(t)
}

// TestChaosMalformedFragmentDropsAlone is the regression test for the
// malformed-fragment veto: a fragment claiming bytes past the 64 KB
// datagram limit used to tear down whatever reassembly state shared its
// key, letting one spoofed fragment kill any in-progress datagram. It
// must drop alone.
func TestChaosMalformedFragmentDropsAlone(t *testing.T) {
	_, _, b := twoHosts(t, core.Conventional)
	rx, err := b.UDPSocket(5000)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 900)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	seg := make([]byte, layers.UDPLen)
	uh := layers.UDP{SrcPort: 9, DstPort: 5000}
	uh.Encode(seg, payload, ipA, ipB)
	whole := append(seg, payload...)

	const id = 7
	b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, id, 0x1, 0, whole[:576]))
	if b.numFrags() != 1 {
		t.Fatal("first fragment did not open reassembly state")
	}
	// Spoofed fragment with the same key, claiming bytes past 64 KB.
	b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, id, 0, 65528, make([]byte, 16)))
	if got := b.Snapshot().Counters.BadIP; got != 1 {
		t.Errorf("malformed fragment not counted: BadIP = %d, want 1", got)
	}
	if b.numFrags() != 1 {
		t.Fatal("malformed fragment tore down legitimate reassembly state")
	}
	b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, id, 0, 576, whole[576:]))
	d, ok := rx.Recv()
	if !ok {
		t.Fatal("datagram never completed after a malformed fragment shared its key")
	}
	if !bytes.Equal(d.Data, payload) {
		t.Error("reassembled payload corrupted")
	}
	if got := b.Snapshot().Counters.Reassembled; got != 1 {
		t.Errorf("Reassembled = %d, want 1", got)
	}
	checkNoLeaks(t)
}

// TestChaosChecksumCorruptionUDP: flipping one bit of a UDP frame in
// flight must never corrupt a payload the application sees — each frame
// is either delivered byte-identical (the flip hit a field nothing
// validates, like the Ethernet source) or counted as exactly one
// checksum drop. The per-frame ledger must balance.
func TestChaosChecksumCorruptionUDP(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mbuf.ResetPool()
			n := NewNet()
			a := n.AddHost("a", ipA, DefaultOptions(core.Conventional))
			b := n.AddHost("b", ipB, DefaultOptions(core.Conventional))
			t.Cleanup(n.Close)
			inj := n.Impair(ipB, faults.Config{CorruptProb: 0.6}, seed)
			_ = a
			tx, _ := a.UDPSocket(1000)
			rx, _ := b.UDPSocket(2000)
			rx.QueueLimit = 1 << 20
			const N = 300
			sent := make(map[string]bool, N)
			for i := 0; i < N; i++ {
				msg := fmt.Sprintf("probe-%04d-seed%d", i, seed)
				sent[msg] = true
				tx.SendTo(ipB, 2000, []byte(msg))
			}
			n.RunUntilIdle()
			received := int64(0)
			for {
				d, ok := rx.Recv()
				if !ok {
					break
				}
				if !sent[string(d.Data)] {
					t.Errorf("corrupt payload reached the socket: %q", d.Data)
				}
				received++
			}
			c := b.Snapshot().Counters
			s := inj.Stats()
			if c.FramesIn != s.Frames {
				t.Errorf("corruption dropped frames at the link: FramesIn=%d, injector saw %d", c.FramesIn, s.Frames)
			}
			bad := c.BadEther + c.BadIP + c.BadUDP + c.NoSocket
			if received+bad != c.FramesIn {
				t.Errorf("frame ledger broken: %d delivered + %d bad != %d in", received, bad, c.FramesIn)
			}
			if s.Corrupted == 0 || bad == 0 {
				t.Errorf("expected corruption both injected and detected: corrupted=%d bad=%d", s.Corrupted, bad)
			}
			checkNoLeaks(t)
		})
	}
}

// TestChaosChecksumCorruptionTCP: under random bit flips the stream
// must still arrive byte-identical — every flip is either caught by a
// checksum (BadTCP/BadIP/BadEther) and repaired by retransmission, or
// hit an unvalidated field and changed nothing.
func TestChaosChecksumCorruptionTCP(t *testing.T) {
	for _, combo := range chaosCombos {
		t.Run(combo.name, func(t *testing.T) {
			mbuf.ResetPool()
			n := NewNet()
			optA := DefaultOptions(combo.disc)
			a := n.AddHost("a", ipA, optA)
			optB := DefaultOptions(combo.disc)
			optB.RxShards = combo.shards
			b := n.AddHost("b", ipB, optB)
			t.Cleanup(n.Close)
			injs := n.ImpairAll(faults.Config{CorruptProb: 0.2}, 42)

			l, err := b.ListenTCP(80)
			if err != nil {
				t.Fatal(err)
			}
			cli := a.DialTCP(ipB, 80)
			var srv *TCPSock
			for i := 0; i < 400 && srv == nil; i++ {
				n.Tick(0.05)
				srv = l.Accept()
			}
			if srv == nil {
				t.Fatalf("handshake never completed under corruption (client %s)", cli.State())
			}
			var want, got bytes.Buffer
			rbuf := make([]byte, 4096)
			for r := 0; r < 24; r++ {
				chunk := make([]byte, 400)
				for i := range chunk {
					chunk[i] = byte(r ^ i)
				}
				want.Write(chunk)
				if err := cli.Send(chunk); err != nil {
					t.Fatal(err)
				}
				n.Tick(0.05)
				for nr := srv.Recv(rbuf); nr > 0; nr = srv.Recv(rbuf) {
					got.Write(rbuf[:nr])
				}
			}
			for i := 0; i < 600 && got.Len() < want.Len(); i++ {
				if cli.Err() != nil || srv.Err() != nil {
					t.Fatalf("connection died: cli=%v srv=%v", cli.Err(), srv.Err())
				}
				n.Tick(0.1)
				for nr := srv.Recv(rbuf); nr > 0; nr = srv.Recv(rbuf) {
					got.Write(rbuf[:nr])
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("stream corrupted: got %d bytes, want %d", got.Len(), want.Len())
			}
			var corrupted, caught int64
			for _, inj := range injs {
				corrupted += inj.Stats().Corrupted
			}
			for _, h := range []*Host{a, b} {
				c := h.Snapshot().Counters
				caught += c.BadTCP + c.BadIP + c.BadEther
			}
			if corrupted == 0 || caught == 0 {
				t.Errorf("expected corruption injected and caught: corrupted=%d caught=%d", corrupted, caught)
			}
			checkNoLeaks(t)
		})
	}
}

// TestChaosChecksumCorruptionFragments: bit flips on the fragment path.
// A flip in a fragment's IP header strands the datagram (reassembly
// timeout); a flip in its payload survives reassembly but must then be
// caught by the UDP checksum. Either way the application sees only
// intact datagrams, and every loss is attributed: missing datagrams ==
// reassembly timeouts + post-reassembly checksum drops.
func TestChaosChecksumCorruptionFragments(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	mkOpts := func() Options {
		o := DefaultOptions(core.Conventional)
		o.MTU = 600
		return o
	}
	a := n.AddHost("a", ipA, mkOpts())
	b := n.AddHost("b", ipB, mkOpts())
	t.Cleanup(n.Close)
	inj := n.Impair(ipB, faults.Config{CorruptProb: 0.25}, 7)

	tx, _ := a.UDPSocket(1000)
	rx, _ := b.UDPSocket(2000)
	rx.QueueLimit = 1 << 20
	const N = 60
	const size = 2000 // 4 fragments at MTU 600
	sent := make(map[string]bool, N)
	for i := 0; i < N; i++ {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i*7 + j)
		}
		sent[string(d)] = true
		tx.SendTo(ipB, 2000, d)
	}
	n.RunUntilIdle()
	n.Tick(fragTimeout + 1) // expire stranded partials
	received := int64(0)
	for {
		d, ok := rx.Recv()
		if !ok {
			break
		}
		if !sent[string(d.Data)] {
			t.Error("corrupt reassembled payload reached the socket")
		}
		received++
	}
	c := b.Snapshot().Counters
	s := inj.Stats()
	if c.FramesIn != s.Frames {
		t.Errorf("corruption dropped frames at the link: FramesIn=%d, injector saw %d", c.FramesIn, s.Frames)
	}
	if b.numFrags() != 0 {
		t.Errorf("%d partial datagrams survived expiry", b.numFrags())
	}
	if missing := N - received; missing != c.ReassemblyTimeouts+c.BadUDP {
		t.Errorf("datagram ledger broken: %d missing, %d timeouts + %d bad UDP",
			missing, c.ReassemblyTimeouts, c.BadUDP)
	}
	if s.Corrupted == 0 || c.BadIP+c.BadUDP+c.BadEther == 0 {
		t.Errorf("expected corruption injected and detected: %+v, counters %+v", s, c)
	}
	checkNoLeaks(t)
}

// TestChaosDropCountersSharded extends the race-stress suite over the
// two drop paths the shard workers hit concurrently — listener backlog
// overflow and UDP queue overflow — while another goroutine reads the
// counters mid-pump via the atomic accessors. Exact counts are asserted;
// -race checks the accessors.
func TestChaosDropCountersSharded(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	optB := DefaultOptions(core.LDLP)
	optB.RxShards = 4
	b := n.AddHost("server", ipB, optB)
	t.Cleanup(n.Close)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	us, err := b.UDPSocket(7000)
	if err != nil {
		t.Fatal(err)
	}
	us.QueueLimit = 4

	const clients = 20
	var hosts []*Host
	for i := 0; i < clients; i++ {
		ip := layers.IPAddr{10, 0, 1, byte(i + 1)}
		hosts = append(hosts, n.AddHost(fmt.Sprintf("c%d", i), ip, DefaultOptions(core.Conventional)))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_ = l.DroppedCount() + us.DroppedCount()
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	for i, h := range hosts {
		h.DialTCP(ipB, 80)
		s, err := h.UDPSocket(uint16(4000 + i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			s.SendTo(ipB, 7000, []byte{byte(i), byte(j)})
		}
	}
	n.RunUntilIdle()
	close(done)
	wg.Wait()

	if got, want := l.DroppedCount(), int64(clients-tcpBacklog); got != want {
		t.Errorf("listener drops = %d, want %d (backlog %d, %d SYNs)", got, want, tcpBacklog, clients)
	}
	if got, want := us.DroppedCount(), int64(clients*3-us.QueueLimit); got != want {
		t.Errorf("socket drops = %d, want %d (queue %d, %d datagrams)", got, want, us.QueueLimit, clients*3)
	}
	checkNoLeaks(t)
}

// TestChaosConcurrentAcceptHandoff exercises the accept hand-off while
// shard workers are actually running: an accept goroutine spins on the
// listener (the one declared worker-concurrent socket operation) while
// the pump delivers staggered handshakes into a 4-shard server. The
// race detector is the assertion here — it proves the backlog lock plus
// the PCB's atomic estab flag are the only state Accept shares with the
// shards — and the data exchange afterwards proves every handed-off
// socket is live.
func TestChaosConcurrentAcceptHandoff(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	t.Cleanup(n.Close)
	a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("server", ipB, ShardedOptions(4))
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}

	const conns = 12
	accepted := make(chan *TCPSock, conns)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got := 0
		for got < conns {
			if s := l.Accept(); s != nil {
				accepted <- s
				got++
				continue
			}
			_ = l.DroppedCount()
			select {
			case <-done:
				return
			default:
				runtime.Gosched() // share the CPU with the pump on small boxes
			}
		}
	}()

	clis := make([]*TCPSock, conns)
	for c := range clis {
		clis[c] = a.DialTCP(ipB, 80)
		n.Tick(0.01) // stagger: hand-offs happen while later SYNs are in flight
	}
	for i := 0; i < 400 && len(accepted) < conns; i++ {
		n.Tick(0.05)
	}
	// Everything is established by now; what may be missing is CPU time
	// for the accept goroutine (GOMAXPROCS=1 starves a spinning peer).
	for i := 0; i < 100_000 && len(accepted) < conns; i++ {
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if len(accepted) != conns {
		t.Fatalf("accepted %d/%d connections", len(accepted), conns)
	}

	// Quiescent now: every handed-off socket must carry data both ways.
	srvs := make([]*TCPSock, 0, conns)
	for len(accepted) > 0 {
		srvs = append(srvs, <-accepted)
	}
	for i, s := range srvs {
		if err := s.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("server socket %d: %v", i, err)
		}
	}
	n.RunUntilIdle()
	total := 0
	var buf [4]byte
	for _, cli := range clis {
		total += cli.Recv(buf[:])
	}
	if total != conns {
		t.Errorf("clients received %d bytes from handed-off sockets, want %d", total, conns)
	}
	checkNoLeaks(t)
}

// TestChaosCloseDuringRetransmitAcrossShards wedges in-flight data with
// a full partition, closes the client sockets mid-retransmission, and
// lets the retry budget run out: every connection must be reaped by the
// timeout (no PCB survives on any shard), with the loss accounted.
func TestChaosCloseDuringRetransmitAcrossShards(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	t.Cleanup(n.Close)
	a := n.AddHost("client", ipA, ShardedOptions(2))
	b := n.AddHost("server", ipB, ShardedOptions(4))
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}

	const conns = 6
	clis := make([]*TCPSock, conns)
	for c := range clis {
		clis[c] = a.DialTCP(ipB, 80)
	}
	srvs := make([]*TCPSock, 0, conns)
	for i := 0; i < 200 && len(srvs) < conns; i++ {
		n.Tick(0.05)
		for s := l.Accept(); s != nil; s = l.Accept() {
			srvs = append(srvs, s)
		}
	}
	if len(srvs) != conns {
		t.Fatalf("accepted %d/%d", len(srvs), conns)
	}

	// Partition everything, then send: the data can only retransmit.
	n.Loss = func(layers.IPAddr, []byte) bool { return true }
	for c, cli := range clis {
		if err := cli.Send([]byte{byte(c), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		n.Tick(0.1) // a few RTOs fire; retransmission is in progress
	}
	if a.Snapshot().Counters.Retransmits == 0 {
		t.Fatal("partition produced no retransmits; the test lost its premise")
	}
	for _, cli := range clis {
		cli.Close() // close with unacked data and the wire dead
	}
	for i := 0; i < 700 && a.numPCBs() > 0; i++ {
		n.Tick(0.25)
	}
	if got := a.numPCBs(); got != 0 {
		t.Errorf("%d client PCBs survived close + retry exhaustion", got)
	}
	if got := a.Snapshot().Counters.TimeoutDrops; got != conns {
		t.Errorf("TimeoutDrops = %d, want %d", got, conns)
	}
	for _, cli := range clis {
		if cli.Err() == nil {
			t.Error("closed-and-timed-out connection reports no error")
		}
	}
	n.Loss = nil
	checkNoLeaks(t)
}

// TestChaosListenerTeardownAcrossShards closes a listener while an
// accept goroutine is spinning and earlier handshakes are still being
// handed off shard to shard. Connections that made the backlog must
// survive and carry data; SYNs arriving after the teardown must be
// counted NoSocket and the orphaned dials must time out rather than
// wedge.
func TestChaosListenerTeardownAcrossShards(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	t.Cleanup(n.Close)
	a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("server", ipB, ShardedOptions(4))
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}

	const early, late = 4, 3
	accepted := make(chan *TCPSock, early+late)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if s := l.Accept(); s != nil {
				accepted <- s
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	earlyClis := make([]*TCPSock, early)
	for c := range earlyClis {
		earlyClis[c] = a.DialTCP(ipB, 80)
	}
	for i := 0; i < 200 && len(accepted) < early; i++ {
		n.Tick(0.05)
	}
	// Teardown between ticks (the listener map is pump-owned state); the
	// accept goroutine keeps hammering the dead listener's backlog lock.
	l.Close()
	lateClis := make([]*TCPSock, late)
	for c := range lateClis {
		lateClis[c] = a.DialTCP(ipB, 80)
	}
	deadline := 0
	for ; deadline < 800; deadline++ {
		n.Tick(0.25)
		alive := false
		for _, cli := range lateClis {
			if cli.Err() == nil {
				alive = true
			}
		}
		if !alive {
			break
		}
	}
	for i := 0; i < 100_000 && len(accepted) < early; i++ {
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	survivors := len(accepted)
	if survivors != early {
		t.Fatalf("accepted %d connections, want the %d pre-teardown ones", survivors, early)
	}
	if b.Snapshot().Counters.NoSocket == 0 {
		t.Error("post-teardown SYNs were not counted NoSocket")
	}
	for c, cli := range lateClis {
		if cli.Err() == nil {
			t.Errorf("late dial %d never timed out (state %s)", c, cli.State())
		}
	}
	// The survivors still work.
	for i := 0; i < survivors; i++ {
		s := <-accepted
		if err := s.Send([]byte("ok")); err != nil {
			t.Errorf("pre-teardown socket broken: %v", err)
		}
	}
	n.RunUntilIdle()
	got := 0
	buf := make([]byte, 8)
	for _, cli := range earlyClis {
		got += cli.Recv(buf)
	}
	if got != early*2 {
		t.Errorf("pre-teardown connections delivered %d bytes, want %d", got, early*2)
	}
	checkNoLeaks(t)
}

// TestNetReplayIsHostOrderIndependent: a run is a function of its
// configuration and seed alone. Under LDLP the order in which hosts
// flush their transmit queues is the order of frames on the shared
// wire, which decides which frame draws which verdict from the
// destination's injector — so the Net must walk its hosts in attachment
// order, never in map order.
func TestNetReplayIsHostOrderIndependent(t *testing.T) {
	const peers, rounds, runs = 4, 20, 25
	for _, disc := range []core.Discipline{core.Conventional, core.LDLP} {
		outcomes := map[string]int{}
		for r := 0; r < runs; r++ {
			n := NewNet()
			h0 := n.AddHost("h0", layers.IPAddr{10, 0, 0, 1}, DefaultOptions(disc))
			for p := 0; p < peers; p++ {
				n.AddHost(fmt.Sprint("peer", p), layers.IPAddr{10, 0, 0, byte(2 + p)}, DefaultOptions(disc))
			}
			n.Impair(h0.IP(), faults.Config{Loss: 0.3}, 42)
			var seq []string
			for round := 0; round < rounds; round++ {
				for p := 0; p < peers; p++ {
					h0.Ping(layers.IPAddr{10, 0, 0, byte(2 + p)}, 1, uint16(round), nil)
				}
				n.RunUntilIdle()
				for _, rep := range h0.PingReplies() {
					seq = append(seq, fmt.Sprint(rep.From[3], ":", rep.Seq))
				}
			}
			n.Close()
			outcomes[fmt.Sprint(seq)]++
		}
		if len(outcomes) != 1 {
			t.Errorf("%v: %d same-seed runs produced %d distinct delivery sequences", disc, runs, len(outcomes))
		}
	}
}
