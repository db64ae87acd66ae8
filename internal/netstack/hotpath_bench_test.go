package netstack

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"ldlp/internal/core"
	"ldlp/internal/dispatch"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// buildBareAck hand-builds the wire bytes of a bare ACK from a to b's
// established connection, with Seq == b.rcvNxt and Ack == b.sndUna so
// processing it leaves b's PCB exactly as it was: the segment takes the
// header-prediction fast path, advances nothing, and is dropped — the
// steady-state receive-path cycle the paper's §2 trace measures.
func buildBareAck(bpcb *tcpPCB, src, dst layers.IPAddr) []byte {
	return buildAck(bpcb, src, dst, bpcb.sndUna)
}

// buildAck is buildBareAck acknowledging up to ack instead: the peer's
// side of a conversation the test scripts segment by segment.
func buildAck(bpcb *tcpPCB, src, dst layers.IPAddr, ack uint32) []byte {
	th := layers.TCP{
		SrcPort: bpcb.tuple.rport,
		DstPort: bpcb.tuple.lport,
		Seq:     bpcb.rcvNxt,
		Ack:     ack,
		Flags:   layers.TCPAck,
		Window:  tcpWindow,
	}
	buf := make([]byte, layers.EthernetLen+layers.IPv4MinLen+layers.TCPMinLen)
	eth := layers.Ethernet{Dst: MACFor(dst), Src: MACFor(src), EtherType: layers.EtherTypeIPv4}
	eth.Encode(buf)
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + layers.TCPMinLen,
		TTL:      64, Protocol: layers.ProtoTCP, Src: src, Dst: dst,
	}
	ip.Encode(buf[layers.EthernetLen:])
	th.Encode(buf[layers.EthernetLen+layers.IPv4MinLen:], nil, src, dst)
	return buf
}

// newAckRig is the steady-state TCP receive fixture: a connection from
// a established on b (built with opts), and the wire bytes of a bare ACK
// that b's fast path accepts any number of times.
func newAckRig(tb testing.TB, opts Options) (*Net, *Host, []byte) {
	mbuf.ResetPool()
	n := NewNet()
	ha := n.AddHost("a", ipA, DefaultOptions(opts.Discipline))
	hb := n.AddHost("b", ipB, opts)
	if _, err := hb.ListenTCP(80); err != nil {
		tb.Fatal(err)
	}
	s := ha.DialTCP(ipB, 80)
	n.RunUntilIdle()
	if !s.Established() {
		tb.Fatal("handshake did not complete")
	}
	bpcb := hb.findPCB(fourTuple{raddr: ipA, rport: s.pcb.tuple.lport, lport: 80})
	return n, hb, buildBareAck(bpcb, ipA, ipB)
}

// malformedFrame is a frame one decoder rejects, and the drop reason
// the receive path counts it under.
type malformedFrame struct {
	name   string
	frame  []byte
	reason telemetry.DropReason
}

// malformedFrames derives from a well-formed ACK one frame per decoder
// reject reason: every error return of the Ethernet, IPv4, TCP and UDP
// decoders. The UDP frames reuse the ACK's 20 transport bytes under
// protocol 17 with a fresh IP header.
func malformedFrames(ack []byte) []malformedFrame {
	const e, t = layers.EthernetLen, layers.EthernetLen + layers.IPv4MinLen
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(ack)
		f(b)
		return b
	}
	withIP := func(total int, proto byte, f func(b []byte)) []byte {
		return edit(func(b []byte) {
			var ip layers.IPv4
			ip.Decode(b[e:])
			ip.TotalLen, ip.Protocol = total, proto
			ip.Encode(b[e:])
			f(b)
		})
	}
	udp := func(length, sum uint16) func(b []byte) {
		return func(b []byte) {
			b[t+4], b[t+5] = byte(length>>8), byte(length)
			b[t+6], b[t+7] = byte(sum>>8), byte(sum)
		}
	}
	nop := func([]byte) {}
	const tcpLen = layers.IPv4MinLen + layers.TCPMinLen
	return []malformedFrame{
		{"ether-truncated", ack[:e-1], telemetry.DropBadEther},
		{"ip-truncated", ack[:t-1], telemetry.DropBadIP},
		{"ip-version", edit(func(b []byte) { b[e] = 6<<4 | 5 }), telemetry.DropBadIP},
		{"ip-header-length", edit(func(b []byte) { b[e] = 4<<4 | 4 }), telemetry.DropBadIP},
		{"ip-total-length", edit(func(b []byte) { b[e+2], b[e+3] = 0, 10 }), telemetry.DropBadIP},
		{"ip-checksum", edit(func(b []byte) { b[e+10] ^= 0xff }), telemetry.DropBadIP},
		{"tcp-truncated", withIP(tcpLen-1, layers.ProtoTCP, nop), telemetry.DropBadTCP},
		{"tcp-data-offset", edit(func(b []byte) { b[t+12] = 4 << 4 }), telemetry.DropBadTCP},
		{"tcp-checksum", edit(func(b []byte) { b[t+16] ^= 0xff }), telemetry.DropBadTCP},
		{"udp-truncated", withIP(layers.IPv4MinLen+layers.UDPLen-1, layers.ProtoUDP, nop), telemetry.DropBadUDP},
		{"udp-length", withIP(tcpLen, layers.ProtoUDP, udp(100, 0)), telemetry.DropBadUDP},
		{"udp-checksum", withIP(tcpLen, layers.ProtoUDP, udp(layers.TCPMinLen, 0x1234)), telemetry.DropBadUDP},
	}
}

// The steady-state TCP receive path — frame to mbuf chain, decode,
// header prediction, chain free, wrapper recycle — allocates nothing,
// under either discipline and on the sharded engine. Neither does
// rejecting a malformed frame, for every reason a decoder has. This is
// the gate; the benchmarks below measure the same cycle's time.
func TestTCPReceivePathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"conventional", DefaultOptions(core.Conventional)},
		{"ldlp", DefaultOptions(core.LDLP)},
		{"rxshards=2", ShardedOptions(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, hb, ack := newAckRig(t, tc.opts)
			defer n.Close()
			cycle := func() {
				hb.deliver(mbuf.FromBytes(ack))
				hb.process()
			}
			for i := 0; i < 64; i++ { // warm pools, engine queues
				cycle()
			}
			before := hb.Counters.TCPFastPath
			const runs = 200
			if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
				t.Errorf("%v allocations per inject → process, want 0", allocs)
			}
			// AllocsPerRun makes one warm-up call of its own.
			if got := hb.Counters.TCPFastPath - before; got != runs+1 {
				t.Errorf("fast path took %d of %d segments", got, runs+1)
			}
			for _, bad := range malformedFrames(ack) {
				reason := bad.reason.String()
				before := hb.Snapshot().Drops[reason]
				allocs := testing.AllocsPerRun(runs, func() {
					hb.deliver(mbuf.FromBytes(bad.frame))
					hb.process()
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocations per rejected frame, want 0", bad.name, allocs)
				}
				if got := hb.Snapshot().Drops[reason] - before; got != runs+1 {
					t.Errorf("%s: %d of %d frames dropped as %s", bad.name, got, runs+1, reason)
				}
			}
			checkNoLeaks(t)
		})
	}
}

// The TCP data path end to end — Send into the send queue and out as a
// segment, the peer's receive path and receive queue, Recv into the
// caller's buffer, the ACKs that come back and what they retire —
// allocates nothing once the two queues have grown to the traffic, under
// either discipline and on the sharded engine.
func TestTCPDataPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"conventional", DefaultOptions(core.Conventional)},
		{"ldlp", DefaultOptions(core.LDLP)},
		{"rxshards=2", ShardedOptions(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _, cli, srv := established(t, tc.opts)
			defer n.Close()
			msg := bytes.Repeat([]byte("small message "), 37)[:512]
			buf := make([]byte, 1024)
			var bad string
			cycle := func() {
				cli.Send(msg)
				srv.Send(msg)
				n.RunUntilIdle()
				for _, s := range []*TCPSock{cli, srv} {
					if got := buf[:s.Recv(buf)]; !bytes.Equal(got, msg) {
						bad = fmt.Sprintf("received %d bytes %q", len(got), got)
					}
				}
			}
			for i := 0; i < 64; i++ { // warm pools, engine queues, both byte queues
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 && !raceBuild() {
				t.Errorf("%v allocations per Send ⇄ Send → pump → Recv, want 0", allocs)
			}
			if bad != "" {
				t.Fatalf("wrong data: %s", bad)
			}
			n.Tick(0.01) // the last message's delayed ACK
			if q := &cli.pcb.snd; q.len() != 0 || cli.pcb.sndSent != 0 || len(cli.pcb.unacked) != 0 {
				t.Errorf("send queue holds %d bytes (%d sent, %d segments) after every byte was acknowledged", q.len(), cli.pcb.sndSent, len(cli.pcb.unacked))
			}
			checkNoLeaks(t)
		})
	}
}

// tcpPCB fills exactly the 192-byte allocator size class — three cache
// lines. One more word puts it in the 208-byte class, and every PCB of
// a 16k-connection host (the tcp_rx_k14 workload's live heap) pays it.
func TestTCPPCBSize(t *testing.T) {
	if got := unsafe.Sizeof(tcpPCB{}); got > 192 {
		t.Errorf("tcpPCB is %d bytes, want at most 192", got)
	}
}

// BenchmarkHotPathInject measures the full steady-state receive path —
// frame to mbuf chain, device/ether/ip decode, TCP header prediction,
// chain free, wrapper recycle. The pooled mbuf shards and Packet
// recycling leave nothing for the collector on this path
// (TestTCPReceivePathAllocFree holds it to 0 allocations).
func BenchmarkHotPathInject(b *testing.B) {
	n, hb, ack := newAckRig(b, DefaultOptions(core.Conventional))
	defer n.Close()

	// Warm the pools (mbuf freelist, Packet sync.Pool) before measuring.
	for i := 0; i < 64; i++ {
		hb.deliver(mbuf.FromBytes(ack))
	}
	before := hb.Counters.TCPFastPath

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.deliver(mbuf.FromBytes(ack))
	}
	b.StopTimer()

	if got := hb.Counters.TCPFastPath - before; got != int64(b.N) {
		b.Fatalf("fast path took %d of %d segments", got, b.N)
	}
	if st := mbuf.PoolStats(); st.InUse != 0 {
		b.Fatalf("mbuf leak on hot path: %+v", st)
	}
}

// BenchmarkHotPathInjectTelemetryOff is BenchmarkHotPathInject with the
// global telemetry gate flipped off: the delta against the default run
// is the cost of the disabled-path branches, which should be noise
// (~0%). The enabled run itself must stay within a couple percent of
// the pre-telemetry baseline — the conventional call-through path
// records no events at all, so both variants exercise the same code up
// to the gate checks.
func BenchmarkHotPathInjectTelemetryOff(b *testing.B) {
	prev := telemetry.Enable(false)
	defer telemetry.Enable(prev)
	n, hb, ack := newAckRig(b, DefaultOptions(core.Conventional))
	defer n.Close()

	for i := 0; i < 64; i++ {
		hb.deliver(mbuf.FromBytes(ack))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.deliver(mbuf.FromBytes(ack))
	}
	b.StopTimer()

	if st := mbuf.PoolStats(); st.InUse != 0 {
		b.Fatalf("mbuf leak on hot path: %+v", st)
	}
}

// BenchmarkHotPathInjectLDLP is the same cycle under the LDLP schedule:
// deliver enqueues at the device layer and process() runs the batch.
func BenchmarkHotPathInjectLDLP(b *testing.B) {
	n, hb, ack := newAckRig(b, DefaultOptions(core.LDLP))
	defer n.Close()

	for i := 0; i < 64; i++ {
		hb.deliver(mbuf.FromBytes(ack))
		hb.process()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.deliver(mbuf.FromBytes(ack))
		hb.process()
	}
	b.StopTimer()

	if bh, ok := hb.Snapshot().Telemetry.Hist("ldlp-batch"); ok && bh.Count > 0 {
		b.ReportMetric(bh.Quantile(0.50), "p50-batch")
		b.ReportMetric(bh.Quantile(0.99), "p99-batch")
	}
	if st := mbuf.PoolStats(); st.InUse != 0 {
		b.Fatalf("mbuf leak on hot path: %+v", st)
	}
}

// BenchmarkHotPathInjectUDP is the small-datagram twin of the two
// benchmarks above, the paper's motivating traffic: one captured 24-byte
// UDP frame through device/ether/ip decode, UDP checksum, socket demux,
// the copy into the socket's reused slot, and Recv — under both
// disciplines, and likewise 0 allocs/op.
func BenchmarkHotPathInjectUDP(b *testing.B) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		b.Run(d.String(), func(b *testing.B) {
			r := newUDPRig(b, DefaultOptions(d), []byte("twenty-four byte payload"))
			defer r.net.Close()
			for i := 0; i < 64; i++ {
				r.cycle()
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.cycle(); !ok {
					b.Fatal("datagram did not reach the socket")
				}
			}
			b.StopTimer()

			if got := r.sock.DroppedCount(); got != 0 {
				b.Fatalf("%d datagrams dropped at the socket", got)
			}
			if st := mbuf.PoolStats(); st.InUse != 0 {
				b.Fatalf("mbuf leak on hot path: %+v", st)
			}
		})
	}
}

// BenchmarkHotPathInjectShards is the scaling smoke for the sharded
// transport path: the same steady-state fast-path cycle fanned across 8
// established connections, at RxShards 1, 2 and 4. Flows hash to their
// owning shards, so the workers touch their PCBs lock-free; the
// shards-hit metric reports how many shards the 8 flows actually
// covered. Wall-clock scaling tracks the host's physical core count —
// on a single-CPU box the workers timeslice and the curve is flat — but
// the invariants hold at every width: every segment takes the fast
// path, 0 allocs/op, and nothing leaks.
func BenchmarkHotPathInjectShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("rxshards=%d", shards), func(b *testing.B) {
			mbuf.ResetPool()
			n := NewNet()
			defer n.Close()
			ha := n.AddHost("a", ipA, DefaultOptions(core.LDLP))
			opts := DefaultOptions(core.LDLP)
			if shards > 1 {
				opts = ShardedOptions(shards)
			}
			hb := n.AddHost("b", ipB, opts)
			if _, err := hb.ListenTCP(80); err != nil {
				b.Fatal(err)
			}
			const conns = 8
			acks := make([][]byte, conns)
			for c := range acks {
				s := ha.DialTCP(ipB, 80)
				n.RunUntilIdle()
				if !s.Established() {
					b.Fatalf("handshake %d did not complete", c)
				}
				bpcb := hb.findPCB(fourTuple{raddr: ipA, rport: s.pcb.tuple.lport, lport: 80})
				acks[c] = buildBareAck(bpcb, ipA, ipB)
			}

			// Warm every flow's path (mbuf freelists, Packet pool, shard
			// queues) before measuring.
			for i := 0; i < 32*conns; i++ {
				hb.deliver(mbuf.FromBytes(acks[i%conns]))
			}
			hb.process()
			before := hb.Counters.TCPFastPath

			b.ReportAllocs()
			b.ResetTimer()
			// Pump cadence: bursts of 64 frames between process() calls,
			// the way Net's pump interleaves delivery and draining (the
			// single-threaded engine buffers at most InputLimit frames;
			// the sharded one backpressures in deliver).
			for i := 0; i < b.N; i++ {
				hb.deliver(mbuf.FromBytes(acks[i%conns]))
				if i&63 == 63 {
					hb.process()
				}
			}
			hb.process()
			b.StopTimer()

			if got := hb.Counters.TCPFastPath - before; got != int64(b.N) {
				b.Fatalf("fast path took %d of %d segments", got, b.N)
			}
			hit := 0
			for _, st := range hb.Snapshot().Shards {
				if st.TCPSegs > 0 {
					hit++
				}
			}
			b.ReportMetric(float64(hit), "shards-hit")
			if st := mbuf.PoolStats(); st.InUse != 0 {
				b.Fatalf("mbuf leak on hot path: %+v", st)
			}
		})
	}
}

// BenchmarkHotPathInjectDispatch is the shards=4 fast-path cycle under
// each dispatch policy: the per-frame policy cost (key derivation plus
// the shard decision — for load-aware, one atomic bucket bump and an
// indirection-table read) is the only thing that varies. Every variant
// must hold the hot-path contract: all segments on the fast path, 0
// allocs/op, no leaks.
func BenchmarkHotPathInjectDispatch(b *testing.B) {
	for _, pc := range []struct {
		name string
		mk   func() dispatch.Policy
	}{
		{"static", func() dispatch.Policy { return dispatch.Static{} }},
		{"loadaware", func() dispatch.Policy { return dispatch.NewLoadAware(4, dispatch.DefaultBuckets) }},
		{"rpcxid", func() dispatch.Policy { return dispatch.NewRPCDispatch(2049) }},
	} {
		b.Run(pc.name, func(b *testing.B) {
			mbuf.ResetPool()
			n := NewNet()
			defer n.Close()
			ha := n.AddHost("a", ipA, DefaultOptions(core.LDLP))
			opts := ShardedOptions(4)
			opts.Dispatch = pc.mk()
			hb := n.AddHost("b", ipB, opts)
			if _, err := hb.ListenTCP(80); err != nil {
				b.Fatal(err)
			}
			const conns = 8
			acks := make([][]byte, conns)
			for c := range acks {
				s := ha.DialTCP(ipB, 80)
				n.RunUntilIdle()
				if !s.Established() {
					b.Fatalf("handshake %d did not complete", c)
				}
				bpcb := hb.findPCB(fourTuple{raddr: ipA, rport: s.pcb.tuple.lport, lport: 80})
				acks[c] = buildBareAck(bpcb, ipA, ipB)
			}

			for i := 0; i < 32*conns; i++ {
				hb.deliver(mbuf.FromBytes(acks[i%conns]))
			}
			hb.process()
			before := hb.Counters.TCPFastPath

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hb.deliver(mbuf.FromBytes(acks[i%conns]))
				if i&63 == 63 {
					hb.process()
				}
			}
			hb.process()
			b.StopTimer()

			if got := hb.Counters.TCPFastPath - before; got != int64(b.N) {
				b.Fatalf("fast path took %d of %d segments", got, b.N)
			}
			if st := mbuf.PoolStats(); st.InUse != 0 {
				b.Fatalf("mbuf leak on hot path: %+v", st)
			}
		})
	}
}
