package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Snapshot is one domain's exported state: every tracer's retained
// events and every histogram, JSON-stable (fixed field order, no map
// iteration anywhere on the way out).
type Snapshot struct {
	Domain  string           `json:"domain"`
	Now     int64            `json:"now"`
	Tracers []TracerSnapshot `json:"tracers,omitempty"`
	Hists   []HistEntry      `json:"hists,omitempty"`
}

// TracerSnapshot is one shard's decoded flight-recorder contents.
type TracerSnapshot struct {
	Label  string   `json:"label"`
	Shard  int      `json:"shard"`
	Layers []string `json:"layers,omitempty"`
	Events []Event  `json:"events"`
	// Recorded counts events recorded when the snapshot began; Lost is
	// how many of those the ring had already overwritten, so Recorded
	// == Lost + len(Events) and Events is contiguous in Seq.
	Recorded uint64 `json:"recorded"`
	Lost     uint64 `json:"lost"`
}

// LayerName resolves a layer index against the snapshot's registered
// names ("L<i>" for an unregistered index).
func (ts TracerSnapshot) LayerName(index int) string {
	if index >= 0 && index < len(ts.Layers) && ts.Layers[index] != "" {
		return ts.Layers[index]
	}
	return "L" + strconv.Itoa(index)
}

// HistEntry is one named histogram in a snapshot.
type HistEntry struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// Hist returns the named histogram's snapshot (zero value if absent).
func (s Snapshot) Hist(name string) (HistSnapshot, bool) {
	for _, e := range s.Hists {
		if e.Name == name {
			return e.Hist, true
		}
	}
	return HistSnapshot{}, false
}

// TraceEvent is one Chrome trace_event entry ("JSON Array Format", the
// subset Perfetto and chrome://tracing both accept). TS and Dur are in
// microseconds, per the format; Dur is set on 'X' (complete) events.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the snapshot as Chrome trace_event entries: one
// thread per tracer (shard), each layer pass as one 'X' complete event
// named by the registered layer name, a "batch" 'C' counter derived
// from every bottom-layer pass, txflush events as 'C' counters, and
// drop/retransmit/fault events as 'I' instants with decoded args.
// Metadata events name the process after the domain and each thread
// after its tracer label. Within a thread, events are ordered by
// timestamp: a pass is recorded at its exit under its start time, so
// ring order puts it after the instants that fell inside it.
func (s Snapshot) ChromeTrace(pid int) []TraceEvent {
	out := make([]TraceEvent, 0, 2+len(s.Tracers))
	out = append(out, TraceEvent{
		Name: "process_name", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": s.Domain},
	})
	for _, tr := range s.Tracers {
		tid := tr.Shard + 1 // tid 0 renders oddly in some viewers
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": tr.Label},
		})
		first := len(out)
		for _, ev := range tr.Events {
			info := ev.Kind.Kind()
			te := TraceEvent{
				Name: info.Name,
				Ph:   string(info.Phase),
				TS:   float64(ev.TS) / 1e3,
				PID:  pid,
				TID:  tid,
			}
			switch ev.Kind {
			case EvLayerEnter:
				if ev.Layer == 0 {
					batch := te
					batch.Name, batch.Ph = "batch", "C"
					batch.Args = map[string]any{"batch": ev.Arg}
					out = append(out, batch)
				}
				te.Name = tr.LayerName(int(ev.Layer))
				// Viewers drop a complete event that has no dur, and a
				// simulated clock does not advance inside a pump.
				te.Dur = float64(max(ev.Dur, 1)) / 1e3
				te.Args = map[string]any{"n": ev.Arg}
			case EvTxFlush:
				te.Args = map[string]any{"frames": ev.Arg}
			case EvDrop:
				te.Args = map[string]any{
					"layer":  tr.LayerName(int(ev.Layer)),
					"reason": DropReason(ev.Arg).String(),
				}
			case EvRetransmit:
				te.Args = map[string]any{"seq": ev.Arg}
			case EvFaultVerdict:
				te.Args = map[string]any{"verdict": VerdictBits(ev.Arg).String()}
			default:
				te.Args = map[string]any{"arg": ev.Arg}
			}
			out = append(out, te)
		}
		track := out[first:]
		sort.SliceStable(track, func(i, j int) bool { return track[i].TS < track[j].TS })
	}
	return out
}

// WriteChromeTrace writes events as a Chrome trace_event JSON array,
// one event per line for greppability.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// HistSummary is a histogram snapshot's headline stats, as Summary
// condenses them.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary computes the headline stats of a snapshot.
func (s HistSnapshot) Summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
