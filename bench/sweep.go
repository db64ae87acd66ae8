package main

import (
	"fmt"
	"runtime"

	"ldlp/internal/core"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

// sweepKs are the burst sizes of the batch sweep: frames delivered
// before each pump. 14 is the paper's cache-fit batch and the stack's
// BatchLimit; 32 runs past it.
var sweepKs = [...]int{1, 2, 4, 8, 14, 32}

const sweepFlows = 8 // fits the 8-entry flow cache: the sweep varies k only

// microNetstack times the netstack pieces that need a host: the batch
// sweep (ns per message against burst size, both configurations: the
// native measurement of LDLP's amortisation), the sharded engine, the
// telemetry gate, and the UDP receive and transmit paths. Anything that
// goes wrong is appended to *trouble.
func microNetstack(m map[string]float64, tm microTiming, wf wireFrames, seed int64, trouble *[]string) error {
	order := make([]uint16, 1<<12)
	rng := newRNG(seed, "sweep flow order")
	for i := range order {
		order[i] = uint16(rng.Intn(sweepFlows))
	}

	// Batch sweep. Each point alternates conv, ldlp.
	var rigs [numCfgs]*tcpRig
	for c := conv; c < numCfgs; c++ {
		r, err := newTCPRig(netstack.DefaultOptions(disciplines[c]), sweepFlows)
		if err != nil {
			return err
		}
		defer r.close()
		rigs[c] = r
	}
	var pos [numCfgs]int
	var injected [numCfgs]int64
	point := func(c cfgID, k int) float64 {
		return timeOp(tm, func(n int) {
			injected[c] += rigs[c].replay(k, (n+k-1)/k, order, &pos[c], nil)
		})
	}
	breakeven := 0.0
	for _, k := range sweepKs {
		cv, ld := point(conv, k), point(ldlp, k)
		m[sweepName(conv, k)], m[sweepName(ldlp, k)] = cv, ld
		if breakeven == 0 && ld <= cv {
			breakeven = float64(k)
		}
	}
	m["netstack.breakeven_k"] = breakeven // 0: LDLP never caught up inside the sweep

	// The telemetry gate: the LDLP host at k = 1 (three flight-recorder
	// events per pass, amortised over one message) with telemetry off,
	// minus the same with it on. The gate is process-wide: restore it.
	on := point(ldlp, 1)
	prev := telemetry.Enable(false)
	off := point(ldlp, 1)
	telemetry.Enable(prev)
	m["telemetry.off_delta_ns"] = off - on

	for c := conv; c < numCfgs; c++ {
		if fast := rigs[c].b.Counters.TCPFastPath; fast != injected[c] {
			*trouble = append(*trouble, fmt.Sprintf("sweep %s: fast path took %d of %d frames", cfgNames[c], fast, injected[c]))
		}
	}

	// The sharded engine, two shards, on two Ps: bursts of 64 frames,
	// then a pump (which blocks until the shard workers drain). On two
	// CPUs this is three runnable goroutines, so it repeats only within
	// about 12 %.
	sr, err := newTCPRig(netstack.ShardedOptions(2), sweepFlows)
	if err != nil {
		return err
	}
	spos, sent := 0, int64(0)
	withProcs(2, func() {
		m["netstack.shard2_ns_per_msg"] = timeOp(tm, func(n int) {
			sent += sr.replay(64, (n+63)/64, order, &spos, nil)
		})
	})
	if fast := sr.b.Counters.TCPFastPath; fast != sent {
		*trouble = append(*trouble, fmt.Sprintf("shard2: fast path took %d of %d frames", fast, sent))
	}
	sr.close() // Net.Close stops both sharded hosts' workers

	return microUDP(m, tm, wf, trouble)
}

// microUDP replays the captured UDP call into a bound socket and reads
// it back (the receive path the rpc and gossip workloads sit on), and
// times SendTo into a carrier that frees the frame.
func microUDP(m map[string]float64, tm microTiming, wf wireFrames, trouble *[]string) error {
	for c := conv; c < numCfgs; c++ {
		cn := newCarrierNet()
		cn.deliver = false // nothing here should transmit back
		b := cn.addHost("b", ipB, netstack.DefaultOptions(disciplines[c]))
		sock, err := b.UDPSocket(rpcPort)
		if err != nil {
			return err
		}
		var got, want int64
		rx := func(n int) {
			for i := 0; i < n; i++ {
				b.InjectFrame(b.FrameFromBytes(wf.udpCall))
				b.Pump()
				if d, ok := sock.Recv(); ok {
					got += int64(len(d.Data))
				}
			}
			want += int64(n) * int64(len(wf.udpCall)-udpHeaders)
		}
		m["netstack.udp_rx_ns_per_msg."+cfgNames[c]] = timeOp(tm, rx)
		if c == conv {
			var m0, m1 runtime.MemStats
			const n = 10_000
			runtime.ReadMemStats(&m0)
			rx(n)
			runtime.ReadMemStats(&m1)
			m["netstack.udp_rx_allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / n
		}
		if got != want || cn.stray != 0 {
			*trouble = append(*trouble, fmt.Sprintf("udp rx %s: received %d payload bytes of %d, %d stray transmits", cfgNames[c], got, want, cn.stray))
		}
		*trouble = append(*trouble, hostTrouble("udp rx "+cfgNames[c], b)...)
		cn.net.Close()
	}

	cn := newCarrierNet()
	cn.deliver = false // the carrier frees every frame: transmit cost only
	a := cn.addHost("a", ipA, netstack.DefaultOptions(core.Conventional))
	sock, err := a.UDPSocket(rpcClientPort)
	if err != nil {
		return err
	}
	payload := wf.udpCall[udpHeaders:]
	var sends int64
	m["netstack.tx_udp_ns_per_frame"] = timeOp(tm, func(n int) {
		for i := 0; i < n; i++ {
			sock.SendTo(ipB, rpcPort, payload)
		}
		sends += int64(n)
	})
	if cn.stray != sends {
		*trouble = append(*trouble, fmt.Sprintf("udp tx: carrier saw %d frames of %d sent", cn.stray, sends))
	}
	cn.net.Close()
	return nil
}
