package netstack

// End-to-end tests for the programmable dispatch layer: a deterministic
// hot-shard scenario proving the load-aware policy migrates live TCP and
// reassembly state without breaking either, and a chaos-grade steal test
// that rebalances while impaired traffic is in flight.

import (
	"bytes"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/dispatch"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

// udpProbe forges a minimal valid UDP frame (header only, checksum
// disabled) from src to dst — enough to pass the decoders and load the
// dispatch policy's bucket counters, even though no socket claims it.
func udpProbe(src, dst layers.IPAddr, sport, dport uint16) *mbuf.Mbuf {
	pl := make([]byte, layers.UDPLen)
	pl[0], pl[1] = byte(sport>>8), byte(sport)
	pl[2], pl[3] = byte(dport>>8), byte(dport)
	pl[5] = layers.UDPLen // length; checksum left zero (disabled)
	return chaosFrame(src, dst, layers.ProtoUDP, 1, 0, 0, pl)
}

// sportForBucket searches source ports until the flow's key lands in the
// wanted bucket (mask buckets-1), so tests can aim load at a shard.
func sportForBucket(t *testing.T, dst layers.IPAddr, dport uint16, buckets int, want uint64) uint16 {
	t.Helper()
	for sport := uint16(1024); sport != 0; sport++ {
		key := dispatch.TupleKey(ipA, dst, layers.ProtoUDP, sport, dport)
		if key&uint64(buckets-1) == want {
			return sport
		}
	}
	t.Fatal("no source port hits the wanted bucket")
	return 0
}

// TestLoadAwareMigratesHotFlows builds the skew the policy exists to
// fix — one shard holding an elephant bucket — and proves the whole
// migration path end to end: the rebalance moves the elephant bucket,
// the established TCP connection inside it is re-homed (FlowsMigrated),
// the partial reassembly sharing the bucket moves with it
// (FragsMigrated), and both keep working afterwards: the datagram
// completes on the new shard and the connection carries data both ways.
func TestLoadAwareMigratesHotFlows(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	t.Cleanup(n.Close)
	const shards, buckets = 4, 64
	pol := dispatch.NewLoadAware(shards, buckets)
	optB := ShardedOptions(shards)
	optB.Dispatch = pol
	a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("server", ipB, optB)

	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	cli := a.DialTCP(ipB, 80)
	var srv *TCPSock
	for i := 0; i < 100 && srv == nil; i++ {
		n.Tick(0.01)
		srv = l.Accept()
	}
	if srv == nil {
		t.Fatal("handshake never completed")
	}

	// The server-side tuple of this connection names its bucket; with a
	// fresh table (no rebalance has fired yet: handshake traffic is far
	// below the observation window) the bucket's owner is bucket % shards.
	connKey := dispatch.TupleKey(ipA, ipB, layers.ProtoTCP, cli.pcb.tuple.lport, 80)
	connBucket := connKey & (buckets - 1)

	// Open reassembly state in the same bucket: the first fragment of a
	// datagram whose fragment key collides with the connection's bucket
	// lands on the same shard and must migrate with it.
	rx, err := b.UDPSocket(5000)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	seg := make([]byte, layers.UDPLen)
	uh := layers.UDP{SrcPort: 9, DstPort: 5000}
	uh.Encode(seg, payload, ipA, ipB)
	whole := append(seg, payload...)
	var fragID uint16
	for id := uint16(1); ; id++ {
		if dispatch.FragmentKey(ipA, ipB, layers.ProtoUDP, id)&(buckets-1) == connBucket {
			fragID = id
			break
		}
	}
	b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, fragID, 0x1, 0, whole[:576]))
	n.RunUntilIdle()
	if b.numFrags() != 1 {
		t.Fatal("first fragment did not open reassembly state")
	}

	// Build the skew: the connection's bucket is the elephant (700
	// frames), a second bucket on the same shard carries 300 more, and
	// each other shard gets 100 of background — so the greedy rebalance
	// must move the elephant bucket, and with it the flow and the
	// fragment.
	load := func(bucket uint64, frames int) {
		sport := sportForBucket(t, ipB, 9999, buckets, bucket)
		for i := 0; i < frames; i++ {
			b.deliver(udpProbe(ipA, ipB, sport, 9999))
		}
	}
	load(connBucket, 700)
	load((connBucket+4)%buckets, 300) // same shard, different bucket
	for off := uint64(1); off <= 3; off++ {
		load((connBucket+off)%buckets, 100) // background on the other shards
	}
	n.RunUntilIdle()
	n.Tick(0.01) // quiescent point: the policy rebalances here

	ds := b.Snapshot().Dispatch
	if ds.Policy != pol.Name() {
		t.Errorf("DispatchStats.Policy = %q, want %q", ds.Policy, pol.Name())
	}
	if ds.Rebalances == 0 || ds.BucketMoves == 0 {
		t.Fatalf("skewed load triggered no rebalance: %+v", ds)
	}
	if ds.FlowsMigrated == 0 {
		t.Fatalf("hot bucket moved but its TCP flow did not: %+v", ds)
	}
	if ds.FragsMigrated == 0 {
		t.Fatalf("hot bucket moved but its reassembly state did not: %+v", ds)
	}

	// The migrated reassembly completes on the new shard.
	b.deliver(chaosFrame(ipA, ipB, layers.ProtoUDP, fragID, 0, 576, whole[576:]))
	n.RunUntilIdle()
	d, ok := rx.Recv()
	if !ok {
		t.Fatal("datagram never completed after its partial state migrated")
	}
	if !bytes.Equal(d.Data, payload) {
		t.Error("reassembled payload corrupted across migration")
	}
	if got := b.Snapshot().Counters.Reassembled; got != 1 {
		t.Errorf("Reassembled = %d, want 1", got)
	}

	// The migrated connection still carries data both ways, in order.
	msg := []byte("post-migration payload")
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	buf := make([]byte, 64)
	if nr := srv.Recv(buf); !bytes.Equal(buf[:nr], msg) {
		t.Errorf("server received %q across migration, want %q", buf[:nr], msg)
	}
	if nr := cli.Recv(buf); !bytes.Equal(buf[:nr], []byte("ack")) {
		t.Errorf("client received %q across migration, want %q", buf[:nr], "ack")
	}
	checkNoLeaks(t)
}

// TestChaosDispatchSteal rebalances while traffic is actually in
// flight and the link is lossy: a TCP transfer runs under a Bernoulli
// impairment while forged background load keeps one shard hot, so every
// few rounds the load-aware policy steals buckets mid-conversation. The
// stream must still arrive byte-identical, buckets must demonstrably
// have moved, and nothing may leak. Runs under -race via make chaos.
func TestChaosDispatchSteal(t *testing.T) {
	mbuf.ResetPool()
	n := NewNet()
	t.Cleanup(n.Close)
	const shards, buckets = 4, 64
	pol := dispatch.NewLoadAware(shards, buckets)
	optB := ShardedOptions(shards)
	optB.Dispatch = pol
	a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
	b := n.AddHost("server", ipB, optB)
	n.ImpairAll(faults.Presets()["bernoulli"], 0xD15)

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
		t.Fatalf("handshake never completed under loss (client %s)", cli.State())
	}

	// Background skew: a heavy and a medium bucket on shard 0, a trickle
	// on the others — enough churn that the policy keeps stealing.
	heavy := sportForBucket(t, ipB, 9999, buckets, 4)
	medium := sportForBucket(t, ipB, 9999, buckets, 8)
	light := []uint16{
		sportForBucket(t, ipB, 9999, buckets, 1),
		sportForBucket(t, ipB, 9999, buckets, 2),
		sportForBucket(t, ipB, 9999, buckets, 3),
	}

	var want, got bytes.Buffer
	rbuf := make([]byte, 8192)
	for r := 0; r < 40; r++ {
		chunk := make([]byte, 300)
		for i := range chunk {
			chunk[i] = byte(r*17 + i)
		}
		want.Write(chunk)
		if err := cli.Send(chunk); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := 0; i < 20; i++ {
			b.deliver(udpProbe(ipA, ipB, heavy, 9999))
		}
		for i := 0; i < 8; i++ {
			b.deliver(udpProbe(ipA, ipB, medium, 9999))
		}
		for _, sp := range light {
			b.deliver(udpProbe(ipA, ipB, sp, 9999))
			b.deliver(udpProbe(ipA, ipB, sp, 9999))
		}
		n.RunUntilIdle() // quiesce the forged load before firing timers
		n.Tick(0.05)     // rebalance point, mid-conversation
		for nr := srv.Recv(rbuf); nr > 0; nr = srv.Recv(rbuf) {
			got.Write(rbuf[:nr])
		}
	}
	// Settle: retransmission alone must complete the stream.
	for i := 0; i < 600 && got.Len() < want.Len(); i++ {
		if cli.Err() != nil || srv.Err() != nil {
			t.Fatalf("connection died mid-steal: cli=%v srv=%v", cli.Err(), srv.Err())
		}
		n.Tick(0.25)
		for nr := srv.Recv(rbuf); nr > 0; nr = srv.Recv(rbuf) {
			got.Write(rbuf[:nr])
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("stream corrupted by stealing: got %d bytes, want %d, diverges at %d",
			got.Len(), want.Len(), i)
	}
	ds := b.Snapshot().Dispatch
	if ds.Rebalances == 0 || ds.BucketMoves == 0 {
		t.Fatalf("no stealing happened — the test lost its premise: %+v", ds)
	}
	checkNoLeaks(t)
}

// TestDispatchStatsSingleThreaded: the stats surface degrades gracefully
// on an unsharded host — one shard-frame entry, zero imbalance, static
// policy, no migrations.
func TestDispatchStatsSingleThreaded(t *testing.T) {
	_, a, b := twoHosts(t, core.LDLP)
	tx, _ := a.UDPSocket(1000)
	if _, err := b.UDPSocket(2000); err != nil {
		t.Fatal(err)
	}
	tx.SendTo(ipB, 2000, []byte("hi"))
	a.net.RunUntilIdle()
	ds := b.Snapshot().Dispatch
	if ds.Policy != "static" || len(ds.ShardFrames) != 1 {
		t.Errorf("unsharded DispatchStats = %+v", ds)
	}
	if ds.Rebalances != 0 || ds.FlowsMigrated != 0 {
		t.Errorf("unsharded host reports migrations: %+v", ds)
	}
}

// TestRPCDispatchSpreadsOneFlow: the paper's UDP-RPC motivation — many
// outstanding requests on a single host pair — must spread across shards
// under the XID policy where the static policy pins them to one. Both
// must deliver every request.
func TestRPCDispatchSpreadsOneFlow(t *testing.T) {
	const port, reqs = 2049, 64
	run := func(t *testing.T, polFor func() dispatch.Policy) []int64 {
		mbuf.ResetPool()
		n := NewNet()
		t.Cleanup(n.Close)
		opt := ShardedOptions(4)
		if p := polFor(); p != nil {
			opt.Dispatch = p
		}
		a := n.AddHost("client", ipA, DefaultOptions(core.LDLP))
		b := n.AddHost("server", ipB, opt)
		rx, err := b.UDPSocket(port)
		if err != nil {
			t.Fatal(err)
		}
		rx.QueueLimit = 1 << 16
		tx, err := a.UDPSocket(700)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reqs; i++ {
			hdr := make([]byte, 20, 64)
			xid := uint32(0x1000 + i*7)
			hdr[0], hdr[1], hdr[2], hdr[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			// type = call (0), rest of the header zero.
			tx.SendTo(ipB, port, append(hdr, byte(i)))
		}
		n.RunUntilIdle()
		delivered := 0
		for {
			if _, ok := rx.Recv(); !ok {
				break
			}
			delivered++
		}
		if delivered != reqs {
			t.Fatalf("delivered %d/%d requests", delivered, reqs)
		}
		return b.Snapshot().Dispatch.ShardFrames
	}
	staticFrames := run(t, func() dispatch.Policy { return nil })
	rpcFrames := run(t, func() dispatch.Policy { return dispatch.NewRPCDispatch(port) })
	busy := func(fr []int64) int {
		n := 0
		for _, f := range fr {
			if f > 0 {
				n++
			}
		}
		return n
	}
	if got := busy(staticFrames); got != 1 {
		t.Fatalf("static policy spread one flow over %d shards: %v", got, staticFrames)
	}
	if got := busy(rpcFrames); got < 3 {
		t.Errorf("rpc-xid policy used only %d shards for %d requests: %v", got, reqs, rpcFrames)
	}
}
