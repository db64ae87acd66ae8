package main

import (
	"ldlp/internal/core"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

// hostSet is the receiving hosts of one configuration of one workload,
// with the engine counters they stood at when traffic began, so that
// counts are reported for the workload's messages and not for the
// handshakes that built the rig.
type hostSet struct {
	hosts []*netstack.Host
	base  []core.Stats
}

// mark records the baseline and empties the batch histograms. Call it
// once the rig is built and before the first message.
func (hs *hostSet) mark(hosts ...*netstack.Host) {
	hs.hosts = hosts
	hs.base = hs.base[:0]
	for _, h := range hosts {
		hs.base = append(hs.base, h.StackStats())
		h.Telemetry().Hist("ldlp-batch").Reset()
		h.Telemetry().Hist("tx-batch").Reset()
	}
}

// layerCounts fills the per-layer metrics that are counts read off the
// hosts (core, flowtable, netstack rows), for the LDLP configuration's
// hosts hs over msgs messages. The last host of the set is the one
// whose flow table is reported (the server side).
func layerCounts(out map[string]float64, hs *hostSet, msgs int64) {
	if len(hs.hosts) == 0 || msgs == 0 {
		return
	}
	var queueOps, fast, slow, delayed, retrans, drops int64
	var rxBatch, txBatch telemetry.HistSnapshot
	largest := 0
	for i, h := range hs.hosts {
		st := h.StackStats()
		queueOps += st.QueueOps - hs.base[i].QueueOps
		largest = max(largest, st.LargestBatch)
		c := &h.Counters
		fast += c.TCPFastPath
		slow += c.TCPSlowPath
		delayed += c.DelayedAcks
		retrans += c.Retransmits
		drops += c.BadEther + c.BadIP + c.BadTCP + c.BadUDP + c.BadICMP + c.NoSocket + c.TimeoutDrops + st.Dropped
		snap := h.Telemetry().Snapshot()
		if b, ok := snap.Hist("ldlp-batch"); ok {
			rxBatch.Merge(b)
		}
		if b, ok := snap.Hist("tx-batch"); ok {
			txBatch.Merge(b)
		}
	}
	out["core.queue_ops_per_msg"] = float64(queueOps) / float64(msgs)
	out["core.mean_batch"] = rxBatch.Mean()
	out["netstack.queue_depth_max"] = float64(largest)
	if fast+slow > 0 {
		out["netstack.fastpath_share"] = float64(fast) / float64(fast+slow)
	}
	out["netstack.delayed_acks_per_msg"] = float64(delayed) / float64(msgs)
	out["netstack.retransmits"] = float64(retrans)
	out["netstack.drops"] = float64(drops)
	out["netstack.tx_batch_mean"] = txBatch.Mean()

	fs := hs.hosts[len(hs.hosts)-1].FlowStats()
	out["flowtable.cache_hit_rate"] = fs.CacheHitRate
	out["flowtable.probe_depth_p99"] = fs.ProbeDepthP99
}
