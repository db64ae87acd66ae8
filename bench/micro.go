package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ldlp/internal/checksum"
	"ldlp/internal/core"
	"ldlp/internal/dispatch"
	"ldlp/internal/faults"
	"ldlp/internal/fleet/gossip"
	"ldlp/internal/flowtable"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/rpc"
	"ldlp/internal/telemetry"
)

// Component micro-timings: each layer's public functions run alone, on
// the frames the workloads put on the wire, so that a later change to a
// layer can be seen at the layer before it is looked for end to end.

// microTiming sizes one micro-timing: samples samples, each about d
// long, read through best like every other timing.
type microTiming struct {
	samples int
	d       time.Duration
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink uint64

// timeOp returns the nanoseconds per operation of op, where op(n)
// performs n operations.
func timeOp(tm microTiming, op func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		op(n)
		el := time.Since(t0)
		if el >= tm.d/8 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(tm.d)/float64(max(el, 1))))
			break
		}
		n *= 4
	}
	per := make([]float64, tm.samples)
	for i := range per {
		t0 := time.Now()
		op(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return best(per)
}

// wireFrames are the two small messages the micro-timings run on, taken
// off the (in-memory) wire through a carrier: the bare ACK that ends a
// TCP handshake (54 bytes: what tcp_rx replays) and an NFS-lite GETATTR
// call over UDP (66 bytes: what udp_rpc sends most).
type wireFrames struct {
	tcpAck  []byte
	udpCall []byte
}

// udpHeaders is the offset of a UDP frame's payload.
const udpHeaders = layers.EthernetLen + layers.IPv4MinLen + layers.UDPLen

func captureFrames() (wireFrames, error) {
	var wf wireFrames
	r, err := newTCPRig(netstack.DefaultOptions(core.Conventional), 1)
	if err != nil {
		return wf, err
	}
	wf.tcpAck = r.acks[0]
	r.close()

	cn := newCarrierNet()
	a := cn.addHost("a", ipA, netstack.DefaultOptions(core.Conventional))
	b := cn.addHost("b", ipB, netstack.DefaultOptions(core.Conventional))
	defer cn.net.Close()
	as, err := a.UDPSocket(rpcClientPort)
	if err != nil {
		return wf, err
	}
	bs, err := b.UDPSocket(rpcPort)
	if err != nil {
		return wf, err
	}
	cn.tap = func(_ *netstack.Host, frame []byte) { wf.udpCall = append([]byte(nil), frame...) }
	as.SendTo(ipB, rpcPort, rpcCallPayload())
	cn.run()
	if _, ok := bs.Recv(); !ok || wf.udpCall == nil {
		return wf, fmt.Errorf("capture: UDP datagram did not arrive")
	}
	return wf, nil
}

// rpcCallPayload is the wire form of an NFS-lite GETATTR call: the rpc
// package's 20-byte header (xid, type 0 = call, program, procedure,
// status) and a 4-byte file handle.
func rpcCallPayload() []byte {
	p := make([]byte, 0, 24)
	for _, v := range []uint32{7, 0, rpc.NFSProgram, rpc.ProcGetAttr, 0, 1} {
		p = binary.BigEndian.AppendUint32(p, v)
	}
	return p
}

// microLayers times the layer packages that need no host: mbuf, layers,
// checksum, dispatch, flowtable, core, telemetry, faults, gossip codec.
func microLayers(m map[string]float64, tm microTiming, wf wireFrames, seed int64) {
	// mbuf: one allocate-and-free cycle on a private pool shard.
	ps := mbuf.NewPool(1).Shard(0)
	big := make([]byte, 1500)
	m["mbuf.frame_alloc_free_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			ps.FromBytes(wf.tcpAck).FreeChain()
		}
	})
	m["mbuf.cluster_alloc_free_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			ps.FromBytes(big).FreeChain()
		}
	})

	// layers: header decode and encode on the captured frames.
	const ipOff, l4Off = layers.EthernetLen, layers.EthernetLen + layers.IPv4MinLen
	var eth layers.Ethernet
	var ip layers.IPv4
	var tcp layers.TCP
	var udp layers.UDP
	m["layers.ether_decode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := eth.Decode(wf.tcpAck)
			sink += uint64(k)
		}
	})
	m["layers.ipv4_decode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := ip.Decode(wf.tcpAck[ipOff:])
			sink += uint64(k)
		}
	})
	m["layers.tcp_decode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := tcp.Decode(wf.tcpAck[l4Off:], ipA, ipB)
			sink += uint64(k)
		}
	})
	m["layers.udp_decode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := udp.Decode(wf.udpCall[l4Off:], ipA, ipB)
			sink += uint64(k)
		}
	})
	hdr := make([]byte, layers.TCPMinLen)
	m["layers.tcp_encode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(tcp.Encode(hdr, nil, ipA, ipB))
		}
	})
	payload := wf.udpCall[l4Off+layers.UDPLen:]
	m["layers.udp_encode_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(udp.Encode(hdr[:layers.UDPLen], payload, ipA, ipB))
		}
	})

	// checksum: a 40-byte header pair and a 552-byte segment.
	for _, size := range []int{40, 552} {
		buf := big[:size]
		m[fmt.Sprintf("checksum.sum_ns.%dB", size)] = timeOp(tm, func(n int) {
			for i := 0; i < n; i++ {
				var acc checksum.Accumulator
				acc.Add(buf)
				sink += uint64(acc.Sum16())
			}
		})
	}

	// dispatch: key a frame and pick its shard.
	for _, pc := range []struct {
		name   string
		policy dispatch.Policy
		frame  []byte
	}{
		{"dispatch.static_key_ns", dispatch.Static{}, wf.tcpAck},
		{"dispatch.loadaware_ns", dispatch.NewLoadAware(2, 0), wf.tcpAck},
		{"dispatch.rpcxid_key_ns", dispatch.NewRPCDispatch(rpcPort), wf.udpCall},
	} {
		m[pc.name] = timeOp(tm, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(pc.policy.Shard(pc.policy.Key(pc.frame), 2))
			}
		})
	}

	// flowtable: a hit among 8 live keys (fits the cache in front of it)
	// and among 4096 (the tcp_rx_k14 population), visited in seeded order.
	rng := newRNG(seed, "flowtable lookup order")
	for _, live := range []int{8, 4096} {
		t := flowtable.New[uint64, int](0, flowtable.Mix64)
		keys := make([]uint64, live)
		for i := range keys {
			// The netstack key shape: remote address, remote port, local port.
			keys[i] = uint64(10)<<56 | uint64(1)<<32 | uint64(32769+i)<<16 | tcpRigPort
			//lint:ignore shardaffinity a private table owned by this goroutine alone: no shard exists to own it
			t.Insert(keys[i], i)
		}
		order := make([]uint64, 1<<14)
		for i := range order {
			order[i] = keys[rng.Intn(live)]
		}
		m[fmt.Sprintf("flowtable.lookup_hit_ns.f%d", live)] = timeOp(tm, func(n int) {
			for i := 0; i < n; i++ {
				//lint:ignore shardaffinity same private table as above
				v, _ := t.Lookup(order[i&(len(order)-1)])
				sink += uint64(v)
			}
		})
	}

	// core: the engine alone, five layers that do nothing but pass the
	// message up — what the schedule itself costs per message.
	newStack := func(d core.Discipline) *core.Stack[int] {
		s := core.NewStack[int](core.Options{Discipline: d, BatchLimit: 14, MaxQueued: 500})
		buildEmptyLayers(s)
		return s
	}
	cs := newStack(core.Conventional)
	m["core.conv_ns_per_msg"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			_ = cs.Inject(i) // call-through never queues, so never fills
		}
	})
	ls := newStack(core.LDLP)
	for _, k := range []int{1, 14} {
		m[fmt.Sprintf("core.ldlp_ns_per_msg.k%d", k)] = timeOp(tm, func(n int) {
			for i := 0; i < n; i += k {
				for j := 0; j < k; j++ {
					_ = ls.Inject(j) // k <= BatchLimit < MaxQueued: never full
				}
				ls.Run()
			}
		}) // op(n) injects n rounded up to a multiple of k; n is in the millions
	}
	before := ls.Stats()
	_ = ls.Inject(0)
	ls.Run()
	opsPerMsg := float64(ls.Stats().QueueOps - before.QueueOps)
	m["core.queue_op_ns"] = (m["core.ldlp_ns_per_msg.k1"] - m["core.conv_ns_per_msg"]) / opsPerMsg

	// The sharded engine is goroutines side by side: give it two Ps.
	withProcs(2, func() {
		for _, shards := range []int{1, 2} {
			ss := core.NewShardedStack(core.Options{Discipline: core.LDLP, BatchLimit: 14, MaxQueued: 500, Shards: shards},
				func(v int) uint64 { return uint64(v) },
				func(_ int, s *core.Stack[int]) { buildEmptyLayers(s) })
			m[fmt.Sprintf("core.shard_ns_per_msg.s%d", shards)] = timeOp(tm, func(n int) {
				for i := 0; i < n; i++ {
					if ss.Inject(i) != nil { // a shard's ring filled before its worker ran
						ss.Drain()
						_ = ss.Inject(i)
					}
					if i&63 == 63 {
						ss.Drain()
					}
				}
				ss.Drain()
			})
			ss.Close() // stops the shard's goroutines
		}
	})

	// telemetry: one flight-recorder event, one histogram observation.
	ring := telemetry.NewRing(1024)
	m["telemetry.ring_record_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(int64(i), telemetry.EvLayerEnter, 0, 1)
		}
	})
	var hist telemetry.Hist
	m["telemetry.hist_observe_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(int64(i & 1023))
		}
	})

	// faults: one verdict from the fleet's link preset; one injector.
	preset := faults.Presets()["bernoulli"]
	inj := faults.New(preset, seed|1)
	m["faults.verdict_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			if inj.Frame(0, len(wf.udpCall)*8).Drop {
				sink++
			}
		}
	})
	var m0, m1 runtime.MemStats
	var made int
	runtime.ReadMemStats(&m0)
	m["faults.new_injector_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			if faults.New(preset, int64(i)+1).Stats().Frames != 0 {
				sink++
			}
		}
		made += n
	})
	runtime.ReadMemStats(&m1)
	m["faults.new_injector_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(made)

	// gossip: encode and decode one full-vector message.
	msg := gossip.Msg{Type: gossip.Wit, Sender: 3, Step: 4, Vec: make([]gossip.VecEntry, 16)}
	var wire []byte
	m["gossip.codec_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			wire = msg.AppendTo(wire[:0])
			d, _ := gossip.Decode(wire)
			sink += uint64(d.Step)
		}
	})

	m["harness.timer_ns"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(time.Since(time.Now()))
		}
	})
}

// buildEmptyLayers adds five linked layers whose handlers only emit
// upward (the top one out of the stack).
func buildEmptyLayers(s *core.Stack[int]) {
	var ls [5]*core.Layer[int]
	for i := range ls {
		i := i
		ls[i] = s.AddLayer(fmt.Sprintf("L%d", i), func(v int, emit core.Emit[int]) {
			if i == len(ls)-1 {
				emit(nil, v)
				return
			}
			emit(ls[i+1], v)
		})
	}
	for i := 0; i+1 < len(ls); i++ {
		s.Link(ls[i], ls[i+1])
	}
}
