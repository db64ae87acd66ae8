package netstack

import (
	"bytes"
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/dispatch"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

// shardedPair builds a client (single-threaded) and a server whose
// receive path runs on shards worker cores.
func shardedPair(t *testing.T, shards int) (*Net, *Host, *Host) {
	t.Helper()
	mbuf.ResetPool()
	n := NewNet()
	a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("server", ipB, ShardedOptions(shards))
	t.Cleanup(n.Close)
	return n, a, b
}

func TestShardedHostRequiresLDLP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RxShards with Conventional discipline did not panic")
		}
	}()
	o := DefaultOptions(core.Conventional)
	o.RxShards = 4
	NewNet().AddHost("x", ipA, o)
}

func TestShardedUDPPerFlowOrder(t *testing.T) {
	const flows, perFlow = 6, 40
	n, a, b := shardedPair(t, 4)
	var clients []*UDPSock
	var servers []*UDPSock
	for f := 0; f < flows; f++ {
		c, err := a.UDPSocket(uint16(1000 + f))
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.UDPSocket(uint16(2000 + f))
		if err != nil {
			t.Fatal(err)
		}
		clients, servers = append(clients, c), append(servers, s)
	}
	for seq := 0; seq < perFlow; seq++ {
		for f := 0; f < flows; f++ {
			clients[f].SendTo(ipB, uint16(2000+f), []byte(fmt.Sprintf("f%d-%04d", f, seq)))
		}
	}
	n.RunUntilIdle()

	for f := 0; f < flows; f++ {
		for seq := 0; seq < perFlow; seq++ {
			dg, ok := servers[f].Recv()
			if !ok {
				t.Fatalf("flow %d: missing datagram %d", f, seq)
			}
			want := fmt.Sprintf("f%d-%04d", f, seq)
			if string(dg.Data) != want {
				t.Fatalf("flow %d reordered: got %q, want %q", f, dg.Data, want)
			}
		}
	}
	if got := b.Snapshot().Counters.FramesIn; got != flows*perFlow {
		t.Errorf("FramesIn = %d, want %d", got, flows*perFlow)
	}
	if got := len(b.Snapshot().Shards); got != 4 {
		t.Errorf("len(Snapshot().Shards) = %d, want 4", got)
	}
	if st := b.Snapshot().Stack; st.Delivered != flows*perFlow {
		t.Errorf("aggregate Delivered = %d, want %d", st.Delivered, flows*perFlow)
	}
	checkNoLeaks(t)
}

func TestShardedTCPConnectionsStayOrdered(t *testing.T) {
	const conns = 5
	n, a, b := shardedPair(t, 4)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	var socks []*TCPSock
	for i := 0; i < conns; i++ {
		socks = append(socks, a.DialTCP(ipB, 80))
	}
	n.RunUntilIdle()

	var accepted []*TCPSock
	for {
		s := l.Accept()
		if s == nil {
			break
		}
		accepted = append(accepted, s)
	}
	if len(accepted) != conns {
		t.Fatalf("accepted %d connections, want %d", len(accepted), conns)
	}

	// Each connection streams a distinct pattern; TCP must deliver every
	// byte in order even though segments of different connections race
	// across shards.
	want := make([][]byte, conns)
	for i, s := range socks {
		for k := 0; k < 30; k++ {
			chunk := bytes.Repeat([]byte{byte('A' + i)}, 100+k)
			want[i] = append(want[i], chunk...)
			if err := s.Send(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.RunUntilIdle()

	for i := range accepted {
		// Accept order is unspecified with concurrent handshakes; match by
		// first byte.
		var got []byte
		buf := make([]byte, 65536)
		for {
			m := accepted[i].Recv(buf)
			if m == 0 {
				break
			}
			got = append(got, buf[:m]...)
		}
		if len(got) == 0 {
			t.Fatalf("connection %d received nothing", i)
		}
		idx := int(got[0] - 'A')
		if idx < 0 || idx >= conns {
			t.Fatalf("connection %d: unexpected first byte %q", i, got[0])
		}
		if !bytes.Equal(got, want[idx]) {
			t.Fatalf("stream %d corrupted: got %d bytes, want %d", idx, len(got), len(want[idx]))
		}
	}
	if b.Snapshot().Counters.DataSegsIn == 0 || b.Snapshot().Counters.TCPFastPath == 0 {
		t.Errorf("server counters look wrong: %+v", b.Snapshot().Counters)
	}
	checkNoLeaks(t)
}

func TestShardedFragmentReassembly(t *testing.T) {
	// All fragments of a datagram share an IP ID, so rxFlowHash pins them
	// to one shard and reassembly needs no cross-shard coordination.
	mbuf.ResetPool()
	n := NewNet()
	small := DefaultOptions(core.LDLP)
	small.MTU = 600
	a := n.AddHost("client", ipA, small)
	srv := ShardedOptions(4)
	srv.MTU = 600
	b := n.AddHost("server", ipB, srv)
	t.Cleanup(n.Close)

	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	for i := 0; i < 8; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 3000)
		sa.SendTo(ipB, 2, payload)
	}
	n.RunUntilIdle()
	// Datagrams carry distinct IP IDs, so they may reassemble on
	// different shards and reach the socket in any order; each one must
	// still come out whole and uncorrupted.
	seen := make(map[byte]bool)
	for i := 0; i < 8; i++ {
		dg, ok := sb.Recv()
		if !ok {
			t.Fatalf("only %d of 8 datagrams arrived", i)
		}
		if len(dg.Data) != 3000 {
			t.Fatalf("datagram %d has len %d, want 3000", i, len(dg.Data))
		}
		fill := dg.Data[0]
		for _, c := range dg.Data {
			if c != fill {
				t.Fatalf("datagram payload mixed fragments: %d vs %d", c, fill)
			}
		}
		if seen[fill] {
			t.Fatalf("datagram %d duplicated", fill)
		}
		seen[fill] = true
	}
	if b.Snapshot().Counters.Reassembled != 8 {
		t.Errorf("Reassembled = %d, want 8", b.Snapshot().Counters.Reassembled)
	}
	if b.Snapshot().Counters.Fragments == 0 {
		t.Error("no fragments counted on a sub-MTU path")
	}
	checkNoLeaks(t)
}

func TestShardedPingEcho(t *testing.T) {
	n, a, b := shardedPair(t, 2)
	_ = b
	for i := 0; i < 10; i++ {
		a.Ping(ipB, 7, uint16(i), []byte("payload"))
	}
	n.RunUntilIdle()
	replies := a.PingReplies()
	if len(replies) != 10 {
		t.Fatalf("got %d replies, want 10", len(replies))
	}
	if b.Snapshot().Counters.EchoRequests != 10 {
		t.Errorf("server EchoRequests = %d", b.Snapshot().Counters.EchoRequests)
	}
	checkNoLeaks(t)
}

func TestShardedMatchesSingleThreadedDelivery(t *testing.T) {
	// The sharded receive path must be observationally equivalent to the
	// single-threaded one: same datagrams, same per-flow order, same
	// socket-visible results.
	run := func(shards int) [][]string {
		mbuf.ResetPool()
		n := NewNet()
		a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
		opts := DefaultOptions(core.LDLP)
		opts.RxShards = shards
		b := n.AddHost("server", ipB, opts)
		defer n.Close()
		const flows, perFlow = 4, 25
		var cs, ss []*UDPSock
		for f := 0; f < flows; f++ {
			c, _ := a.UDPSocket(uint16(100 + f))
			s, _ := b.UDPSocket(uint16(200 + f))
			cs, ss = append(cs, c), append(ss, s)
		}
		for seq := 0; seq < perFlow; seq++ {
			for f := 0; f < flows; f++ {
				cs[f].SendTo(ipB, uint16(200+f), []byte(fmt.Sprintf("%d:%d", f, seq)))
			}
		}
		n.RunUntilIdle()
		out := make([][]string, flows)
		for f := 0; f < flows; f++ {
			for {
				dg, ok := ss[f].Recv()
				if !ok {
					break
				}
				out[f] = append(out[f], string(dg.Data))
			}
		}
		return out
	}
	single := run(1)
	sharded := run(4)
	if fmt.Sprint(single) != fmt.Sprint(sharded) {
		t.Errorf("sharded deliveries diverge:\nsingle:  %v\nsharded: %v", single, sharded)
	}
}

func TestFrameKeyFlows(t *testing.T) {
	mkFrame := func(src, dst layers.IPAddr, proto byte, srcPort, dstPort uint16, id uint16, flags byte, fragOff int) []byte {
		payload := []byte{byte(srcPort >> 8), byte(srcPort), byte(dstPort >> 8), byte(dstPort), 0, 0, 0, 0}
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
		out := append([]byte(nil), m.Contiguous()...)
		m.FreeChain()
		return out
	}

	// Same 4-tuple -> same shard, regardless of payload-free header noise.
	h1 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoTCP, 1111, 80, 5, 0, 0))
	h2 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoTCP, 1111, 80, 99, 0, 0))
	if h1 != h2 {
		t.Error("same 4-tuple hashed to different flows")
	}
	// Different source port -> (almost surely) a different flow.
	h3 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoTCP, 2222, 80, 5, 0, 0))
	if h1 == h3 {
		t.Error("distinct 4-tuples collided (suspicious for FNV on 4 bytes)")
	}
	// Fragments of one datagram share a hash with each other...
	f1 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoUDP, 1111, 80, 42, 0x1, 0))
	f2 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoUDP, 7777, 9999, 42, 0, 1480))
	if f1 != f2 {
		t.Error("fragments of the same datagram hashed apart")
	}
	// ...but not with fragments of a different datagram.
	f3 := dispatch.FrameKey(mkFrame(ipA, ipB, layers.ProtoUDP, 1111, 80, 43, 0x1, 0))
	if f1 == f3 {
		t.Error("fragments of different datagrams collided")
	}
	// Runt frames must not panic.
	_ = dispatch.FrameKey(nil)
	_ = dispatch.FrameKey([]byte{1, 2, 3})
}

// TestShardedStressManyFlows is the netstack leg of the race suite: a
// storm of interleaved UDP flows, TCP transfers and pings into one
// sharded host. Run under `make test-race`.
func TestShardedStressManyFlows(t *testing.T) {
	const flows = 16
	n, a, b := shardedPair(t, 4)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	conn := a.DialTCP(ipB, 80)
	var cs, ss []*UDPSock
	for f := 0; f < flows; f++ {
		c, _ := a.UDPSocket(uint16(5000 + f))
		s, _ := b.UDPSocket(uint16(6000 + f))
		cs, ss = append(cs, c), append(ss, s)
	}
	total := 0
	for round := 0; round < 20; round++ {
		for f := 0; f < flows; f++ {
			cs[f].SendTo(ipB, uint16(6000+f), bytes.Repeat([]byte{byte(f)}, 64))
			total++
		}
		conn.Send(bytes.Repeat([]byte{'x'}, 512))
		a.Ping(ipB, 1, uint16(round), nil)
		n.RunUntilIdle()
	}
	if l.Accept() == nil {
		t.Fatal("TCP connection never accepted")
	}
	got := 0
	for f := 0; f < flows; f++ {
		for {
			if _, ok := ss[f].Recv(); !ok {
				break
			}
			got++
		}
	}
	if got != total {
		t.Errorf("UDP datagrams delivered %d, want %d", got, total)
	}
	if len(a.PingReplies()) != 20 {
		t.Error("missing ping replies")
	}
}
