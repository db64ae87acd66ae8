package main

import (
	"fmt"
	"time"

	"ldlp/internal/mbuf"
)

// runTraced is the traced run: it reports every per-layer metric and
// writes the spans as a Chrome trace. It spends its time budget on an
// untraced pass over the workload, the same pass again with spans on
// (the difference is trace.overhead_share), and then the component
// micro-timings. End-to-end numbers never come from here.
func runTraced(p params, traceOut string) (*result, error) {
	start := time.Now()
	res, w, err := begin(p)
	if err != nil {
		return nil, err
	}
	m := res.metrics
	for _, d := range perLayer {
		m[d.Name] = 0 // a layer the workload never enters reads 0
	}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", p.workload, err)
	}
	un := measure(w, p, p.seconds*0.2, nil)
	var recs [numCfgs]*spanRec
	epoch := time.Now()
	for c := range recs {
		recs[c] = newSpanRec(epoch)
	}
	tr := measure(w, p, p.seconds*0.2, &recs)
	res.s = tr

	w.counts(m)
	if st := mbuf.PoolStats(); st.Allocs > 0 {
		m["mbuf.heap_share"] = float64(st.HeapAllocs) / float64(st.Allocs)
		m["mbuf.overflow_share"] = float64(st.OverflowGets) / float64(st.Allocs)
	}
	if rw, ok := w.(*udpRPC); ok {
		m["rpc.allocs_per_call"] = rw.allocsPerCall()
	}
	res.attempted, res.failed, res.failures = w.verify()
	exactCounts(w, res)
	checkPoolBalanced(res)
	w.teardown()

	convNs, ldlpNs := best(un.perWindow[conv]), best(un.perWindow[ldlp])
	m["conv.msgs_per_s"] = 1e9 / convNs
	m["ldlp.msgs_per_s"] = 1e9 / ldlpNs
	m["netstack.ldlp_over_conv"] = un.pairedRatio()
	m["trace.overhead_share"] = (best(tr.perWindow[conv]) + best(tr.perWindow[ldlp]) - convNs - ldlpNs) / (convNs + ldlpNs)

	rec, msgs := recs[ldlp], tr.msgs[ldlp]
	for name, sp := range map[string]int{
		"harness.round_self_ns":   spRound,
		"netstack.frame_alloc_ns": spFrameAlloc,
		"netstack.inject_ns":      spInject,
		"netstack.pump_ns":        spPump,
		"netstack.wire_ns":        spWire,
		"rpc.client_call_ns":      spRPCCall,
		"rpc.server_poll_ns":      spRPCServerPoll,
		"rpc.client_poll_ns":      spRPCClientPoll,
		"httpd.client_get_ns":     spHTTPGet,
		"httpd.server_poll_ns":    spHTTPServerPoll,
		"httpd.client_poll_ns":    spHTTPClientPoll,
		"fleet.run_self_ns":       spFleetRun,
		"gossip.app_ns":           spGossipApp,
	} {
		m[name] = rec.selfPer(sp, msgs)
	}
	if err := writeChromeTrace(traceOut, p.workload, recs[:]); err != nil {
		return nil, err
	}

	// What is left of the budget goes to the micro-timings, split evenly.
	wf, err := captureFrames()
	if err != nil {
		return nil, fmt.Errorf("capture frames: %w", err)
	}
	tm := microTiming{samples: 5}
	left := p.seconds - time.Since(start).Seconds()
	tm.d = time.Duration(left / float64(numMicroTimings*(tm.samples+1)) * float64(time.Second))
	tm.d = min(max(tm.d, 2*time.Millisecond), 200*time.Millisecond)
	if p.quick {
		tm = microTiming{samples: 1, d: time.Millisecond}
	}
	microLayers(m, tm, wf, p.seed)
	known := len(res.failures)
	if err := microNetstack(m, tm, wf, p.seed, &res.failures); err != nil {
		return nil, fmt.Errorf("netstack micro-timings: %w", err)
	}
	res.failed += int64(len(res.failures) - known)
	checkPoolBalanced(res)

	// What the component rows do not explain of one conventional message.
	// The table lookup only counts where the flow cache cannot answer.
	components := m["mbuf.frame_alloc_free_ns"] + m["layers.ether_decode_ns"] + m["layers.ipv4_decode_ns"] + m["core.conv_ns_per_msg"]
	switch p.workload {
	case "udp_rpc", "fleet_gossip":
		components += m["layers.udp_decode_ns"]
	case "tcp_rx_k14":
		components += m["layers.tcp_decode_ns"] + m["flowtable.lookup_hit_ns.f4096"]
	default:
		components += m["layers.tcp_decode_ns"]
	}
	m["netstack.residual_ns"] = convNs - components
	return res, nil
}

// numMicroTimings is how many timeOp calls microLayers and microNetstack
// make between them; it only sizes their share of the time budget.
const numMicroTimings = 26 + 2*len(sweepKs) + 2 + 1 + 3
