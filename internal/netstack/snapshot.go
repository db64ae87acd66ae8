package netstack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ldlp/internal/core"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// Snapshot is everything a host reports about itself, taken at one
// quiescent point: the protocol counters, the drop ledger, the receive
// engine's stats and queue depths, each transport shard's tallies, the
// flow table, dispatch, the mbuf pool and the flight recorder.
// cmd/chaos, the examples and tests read a host through it, and Diff
// prints what changed between two.
type Snapshot struct {
	Name     string // the host's name
	Counters Counters
	// Drops counts drops by reason name from the counters Host.reject
	// moves, DropEvents the EvDrop records in the flight recorder, or is
	// nil if a tracer lost events (they cannot all be counted). reject
	// moves both, so the two are equal whenever recording was on and
	// nothing was lost, and unequal if drops went uncounted either way.
	Drops, DropEvents map[string]int64
	Stack             core.Stats
	QueueDepths       []int
	Shards            []ShardTransportStats // index-aligned with the receive shards
	Flows             FlowStats
	Dispatch          DispatchStats
	// Pool is the process-wide mbuf pool every host draws from: InUse 0
	// at quiescence means no chain leaked anywhere.
	Pool      mbuf.Stats
	Telemetry telemetry.Snapshot
}

// Snapshot reads the whole host. Pump-side: take it while the network is
// quiescent.
//
//ldlp:quiescent
func (h *Host) Snapshot() Snapshot {
	s := Snapshot{
		Name: h.name, Counters: h.Counters,
		Drops: map[string]int64{}, DropEvents: map[string]int64{},
		Stack: h.StackStats(), QueueDepths: h.QueueDepths(),
		Shards: h.shardStats(), Flows: h.FlowStats(), Dispatch: h.dispatchStats(),
		Pool: mbuf.PoolStats(), Telemetry: h.tel.Snapshot(),
	}
	for r := telemetry.DropReason(1); r.String() != "invalid"; r++ {
		if n := s.Counters.drops(r, 0); n != 0 {
			s.Drops[r.String()] = n
		}
	}
	for _, tr := range s.Telemetry.Tracers {
		for _, ev := range tr.Events {
			if ev.Kind == telemetry.EvDrop {
				s.DropEvents[telemetry.DropReason(ev.Arg).String()]++
			}
		}
		if tr.Lost > 0 {
			s.DropEvents = nil
			break
		}
	}
	return s
}

// Diff lists what changed from a to b, one "path: old -> new" line per
// changed value, sorted ("Counters.FramesIn: 3 -> 5"; "-" stands for
// absent); "" when nothing did. Flight-recorder events are left out —
// read those as a trace — but each tracer's recorded and lost counts
// are kept.
func Diff(a, b Snapshot) string {
	la, lb := a.leaves(), b.leaves()
	for p := range la {
		if _, ok := lb[p]; !ok {
			lb[p] = "-"
		}
	}
	var lines []string
	for p, vb := range lb {
		va, ok := la[p]
		if !ok {
			va = "-"
		}
		if va != vb {
			lines = append(lines, p+": "+va+" -> "+vb+"\n")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// leaves flattens s, by way of its JSON form, into path -> value, events
// left out.
func (s Snapshot) leaves() map[string]string {
	s.Telemetry.Tracers = slices.Clone(s.Telemetry.Tracers)
	for i := range s.Telemetry.Tracers {
		s.Telemetry.Tracers[i].Events = nil
	}
	// Neither call can fail: s is plain data, and raw is what Marshal
	// just wrote.
	raw, _ := json.Marshal(s)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	_ = dec.Decode(&v)
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range x {
				walk(path+"."+strconv.Itoa(i), e)
			}
		default:
			out[path[1:]] = fmt.Sprint(x)
		}
	}
	walk("", v)
	return out
}

// QueueDepths reports the receive engine's current input-queue depths:
// one entry per shard for a sharded host, a single entry (messages
// enqueued inside the engine) for a single-threaded one.
func (h *Host) QueueDepths() []int {
	if h.sharded {
		return h.shards.QueueDepths()
	}
	return []int{h.stack.Pending()}
}
