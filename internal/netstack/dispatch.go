package netstack

// Receive-side dispatch rebalancing: the pump-side half of the
// internal/dispatch tentpole. Every Net.Tick, after the timers, each
// host hands its dispatch policy the per-shard load window and applies
// whatever migrations the policy returns — moving the covered flows'
// transport state (PCBs, in-progress reassemblies) to the new owner.
//
// Why this preserves per-flow FIFO order: dispatchTick runs on the pump
// goroutine while the shard workers are quiescent (Net.Tick fires
// timers before pumping, and the previous pump ended with every shard
// drained), so no frame of any flow is queued or in flight when the
// routing table changes. Frames of a migrated flow that arrive after
// the change route to the new shard — whose queue is empty of that
// flow — and are processed there in arrival order; frames processed
// before the change completed on the old shard in arrival order. The
// hand-off itself moves state through plain writes that the workers
// observe via the engine's channel sends (happens-before). So the
// migration point is a clean cut: order within the flow is the
// concatenation of two FIFO segments. The dispatch package's
// FIFO-under-migration property test exercises exactly this schedule.

import (
	"ldlp/internal/dispatch"
	"ldlp/internal/layers"
)

// DispatchStats is a host's receive-side dispatch view in
// Snapshot.Dispatch: which policy routes frames, how much rebalancing it
// has done, and how evenly the shards are loaded.
type DispatchStats struct {
	Policy        string
	Rebalances    int64   // rebalance rounds that moved something
	BucketMoves   int64   // indirection-table entries re-homed
	FlowsMigrated int64   // TCP connections moved between shards
	FragsMigrated int64   // partial reassemblies moved
	ShardFrames   []int64 // frames processed per shard, cumulative
	// Imbalance is max(ShardFrames) * shards / sum(ShardFrames): 1.0 is
	// a perfectly even spread, shards (= every frame on one shard) the
	// worst case. 0 before any traffic.
	Imbalance float64
}

// dispatchStats reports the host's dispatch policy activity and
// per-shard frame balance.
func (h *Host) dispatchStats() DispatchStats {
	out := h.dispatch
	out.Policy = h.policy.Name()
	if h.sharded {
		out.ShardFrames = make([]int64, len(h.tshards))
		for i := range out.ShardFrames {
			out.ShardFrames[i] = h.shards.ShardStats(i).Processed
		}
	} else {
		out.ShardFrames = []int64{h.stack.Stats().Processed}
	}
	var total, maxv int64
	for _, v := range out.ShardFrames {
		total += v
		if v > maxv {
			maxv = v
		}
	}
	if total > 0 {
		out.Imbalance = float64(maxv) * float64(len(out.ShardFrames)) / float64(total)
	}
	return out
}

// dispatchTick is the policy's rebalance point: compute each shard's
// load since the last tick, ask the policy for migrations, apply them.
// Pump-side at quiescence — it rewrites shard-owned transport state.
//
//ldlp:quiescent
func (h *Host) dispatchTick() {
	if !h.sharded {
		return
	}
	loads := make([]int64, len(h.tshards))
	for i := range loads {
		cur := h.shards.ShardStats(i).Processed
		loads[i] = cur - h.prevShardLoad[i]
		h.prevShardLoad[i] = cur
	}
	migs := h.policy.Rebalance(loads)
	if len(migs) == 0 {
		return
	}
	h.dispatch.Rebalances++
	h.dispatch.BucketMoves += int64(len(migs))
	for _, mg := range migs {
		h.applyMigration(mg)
	}
}

// applyMigration re-homes every flow the migration covers from its old
// shard to its new one: TCP connections (flow table + cached PCB +
// PCB back-pointer) and in-progress reassemblies (fragments key by IP
// ID, so a covered datagram's reassembly state moves with its future
// fragments). The covered-key test uses the same canonical key builders
// the data plane uses (dispatch.TupleKey / dispatch.FragmentKey), so
// exactly the flows whose frames now route to the new shard move —
// no more, no less. Pump-side at quiescence: collect during Range,
// mutate after (the flow table tolerates deletes mid-Range but not
// inserts).
//
//ldlp:quiescent
func (h *Host) applyMigration(mg dispatch.Migration) {
	if mg.From == mg.To || mg.From >= len(h.tshards) || mg.To >= len(h.tshards) {
		return
	}
	from, to := h.tshards[mg.From], h.tshards[mg.To]
	var tuples []fourTuple
	var pcbs []*tcpPCB
	from.pcbs.Range(func(t fourTuple, pcb *tcpPCB) bool {
		if mg.Covers(dispatch.TupleKey(t.raddr, h.ip, layers.ProtoTCP, t.rport, t.lport)) {
			tuples = append(tuples, t)
			pcbs = append(pcbs, pcb)
		}
		return true
	})
	for i, t := range tuples {
		// Only the owning shard's cache may hold a flow's PCB; every
		// migration re-establishes that by clearing it at the source.
		if from.last == pcbs[i] {
			from.last = nil
		}
		from.pcbs.Delete(t)
		pcbs[i].owner = to
		to.pcbs.Insert(t, pcbs[i])
		h.dispatch.FlowsMigrated++
	}
	if from.frags != nil {
		var fkeys []fragKey
		var fsts []*fragState
		from.frags.Range(func(k fragKey, st *fragState) bool {
			if mg.Covers(dispatch.FragmentKey(k.src, h.ip, k.proto, k.id)) {
				fkeys = append(fkeys, k)
				fsts = append(fsts, st)
			}
			return true
		})
		for i, k := range fkeys {
			from.frags.Delete(k)
			// The source's fragq entry goes stale; fragLive's pointer
			// check sheds it.
			to.adoptFrag(k, fsts[i])
			h.dispatch.FragsMigrated++
		}
	}
}
