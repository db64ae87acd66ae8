// Monitoring hooks: the pool and queue-depth counters a perf
// investigation wants next to a CPU or heap profile, exposed both as
// plain accessors and through the standard expvar registry (so any
// binary that serves net/http gets them on /debug/vars for free).
package netstack

import (
	"expvar"
	"strconv"
	"sync"

	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// QueueDepths reports the receive engine's current input-queue depths:
// one entry per shard for a sharded host, a single entry (messages
// enqueued inside the engine) for a single-threaded one. A point-in-time
// snapshot for monitoring.
func (h *Host) QueueDepths() []int {
	if h.sharded {
		return h.shards.QueueDepths()
	}
	return []int{h.stack.Pending()}
}

// PoolStats returns the mbuf pool counters every host draws from (the
// package default pool): a balanced InUse of zero means no chain was
// leaked anywhere in the process.
func PoolStats() mbuf.Stats {
	return mbuf.PoolStats()
}

// expvarPool publishes the shared mbuf pool once per process.
var expvarPool sync.Once

// expvars builds the host's published variable map: queue depths, frame
// and drop counters, engine stats, and the telemetry histogram
// summaries (batch sizes, transmit flushes) from the host's domain.
func (h *Host) expvars() map[string]any {
	hists := map[string]telemetry.HistSummary{}
	snap := h.tel.Snapshot()
	for _, e := range snap.Hists {
		hists[e.Name] = e.Hist.Summary()
	}
	return map[string]any{
		"id":          h.id,
		"queueDepths": h.QueueDepths(),
		"framesIn":    h.Counters.FramesIn,
		"framesOut":   h.Counters.FramesOut,
		"tcpFastPath": h.Counters.TCPFastPath,
		"tcpSlowPath": h.Counters.TCPSlowPath,
		"stackStats":  h.StackStats(),
		"shards":      h.ShardTransportStats(),
		"flows":       h.FlowStats(),
		"dispatch":    h.DispatchStats(),
		"telemetry":   hists,
	}
}

// PublishExpvars registers this host's counters with the expvar
// registry as "netstack.<name>.<id>" and — once per process — the shared
// mbuf pool as "netstack.mbufpool". The id comes from the process-wide
// host sequence, so the name is unique per host instance: two same-named
// hosts — e.g. a test building a fresh Net while the old one's vars are
// still registered — each get an entry that reads their own counters.
// Publishing a host again is a no-op.
func (h *Host) PublishExpvars() {
	expvarPool.Do(func() {
		expvar.Publish("netstack.mbufpool", expvar.Func(func() any {
			s := mbuf.PoolStats()
			return map[string]int64{
				"allocs": s.Allocs, "frees": s.Frees,
				"inUse": s.InUse, "clusters": s.Clusters,
				"heapAllocs": s.HeapAllocs,
			}
		}))
	})
	h.expvarOnce.Do(func() {
		expvar.Publish("netstack."+h.name+"."+strconv.Itoa(h.id), expvar.Func(func() any {
			return h.expvars()
		}))
	})
}
