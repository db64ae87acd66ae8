package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ldlp/internal/telemetry"
)

// Span names: one per public function of a layer package the workloads
// call, plus the round that encloses them. The index is the span's
// identity inside the recorder, so the traced loop never touches a
// string or a map.
const (
	spRound = iota
	spFrameAlloc
	spInject
	spPump
	spWire
	spRPCCall
	spRPCServerPoll
	spRPCClientPoll
	spHTTPGet
	spHTTPServerPoll
	spHTTPClientPoll
	spFleetRun
	spGossipApp
	numSpans
)

var spanNames = [numSpans]string{
	spRound:          "bench.round",
	spFrameAlloc:     "netstack.Host.FrameFromBytes",
	spInject:         "netstack.Host.InjectFrame",
	spPump:           "netstack.Host.Pump",
	spWire:           "netstack.Net.RunUntilIdle",
	spRPCCall:        "rpc.Client.Call",
	spRPCServerPoll:  "rpc.Server.Poll",
	spRPCClientPoll:  "rpc.Client.Poll",
	spHTTPGet:        "httpd.Client.Get",
	spHTTPServerPoll: "httpd.Server.Poll",
	spHTTPClientPoll: "httpd.Client.Poll",
	spFleetRun:       "fleet.Fleet.Run",
	spGossipApp:      "gossip.Runner",
}

// span is one recorded interval: what ran, when, under which span, in
// which round.
type span struct {
	name       uint8
	parent     int32 // index into spans, -1 for a root
	round      int32
	start, end int64 // ns since the recorder's epoch
}

type openSpan struct {
	name     uint8
	idx      int32 // index into spans, -1 once the keep buffer is full
	start    int64
	children int64 // ns covered by child spans
}

// spanRec records spans around the calls the benchmark makes into each
// layer. It lives in bench/ — nothing inside the program is touched —
// and keeps everything in memory until the run ends. Self time (a span's
// duration minus what its children cover) is summed per name as spans
// close; only the first keepSpans intervals are kept for the Chrome
// trace, because a traced tcp_rx run closes millions of them.
//
// A nil *spanRec is the untraced run: begin and end return at once.
type spanRec struct {
	epoch  time.Time
	stack  []openSpan
	spans  []span
	round  int32
	selfNs [numSpans]int64
}

const keepSpans = 20_000

func newSpanRec(epoch time.Time) *spanRec {
	return &spanRec{epoch: epoch, stack: make([]openSpan, 0, 8), spans: make([]span, 0, keepSpans)}
}

func (r *spanRec) begin(name int) {
	if r == nil {
		return
	}
	idx := int32(-1)
	if len(r.spans) < keepSpans {
		parent := int32(-1)
		if len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1].idx
		}
		idx = int32(len(r.spans))
		r.spans = append(r.spans, span{name: uint8(name), parent: parent, round: r.round})
	}
	now := int64(time.Since(r.epoch))
	if idx >= 0 {
		r.spans[idx].start = now
	}
	r.stack = append(r.stack, openSpan{name: uint8(name), idx: idx, start: now})
}

func (r *spanRec) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now - top.start
	r.selfNs[top.name] += dur - top.children
	if top.idx >= 0 {
		r.spans[top.idx].end = now
	}
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].children += dur
	}
	if top.name == spRound {
		r.round++
	}
}

// selfPer returns the self time of every span called name, divided by n
// (messages, calls or requests); 0 when either is absent.
func (r *spanRec) selfPer(name int, n int64) float64 {
	if r == nil || n == 0 {
		return 0
	}
	return float64(r.selfNs[name]) / float64(n)
}

// selfTimes computes each span's self time from recorded intervals
// alone: its duration minus the part of it its children cover. The
// recorder sums the same quantity as spans close; this is the reference
// the tests compare that against.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChromeTrace writes the kept spans of each recorder as Chrome
// trace_event JSON (begin/end pairs, one thread per configuration; load
// it in Perfetto or chrome://tracing), through the repo's own exporter.
func writeChromeTrace(path, workload string, recs []*spanRec) error {
	events := []telemetry.TraceEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "bench " + workload},
	}}
	for c, r := range recs {
		tid := c + 1
		events = append(events, telemetry.TraceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": cfgNames[c]},
		})
		// Spans were appended in begin order and a parent begins before
		// its children, so replaying begins in order, and first closing
		// every span that ended by then, yields a balanced stream.
		var open []int
		closeUntil := func(ts int64) {
			for len(open) > 0 && r.spans[open[len(open)-1]].end <= ts {
				s := r.spans[open[len(open)-1]]
				open = open[:len(open)-1]
				events = append(events, telemetry.TraceEvent{Name: spanNames[s.name], Ph: "E", TS: float64(s.end) / 1e3, PID: 1, TID: tid})
			}
		}
		for i, s := range r.spans {
			if s.end == 0 {
				continue // still open when the buffer filled
			}
			closeUntil(s.start)
			events = append(events, telemetry.TraceEvent{
				Name: spanNames[s.name], Ph: "B", TS: float64(s.start) / 1e3, PID: 1, TID: tid,
				Args: map[string]any{"round": s.round, "parent": s.parent, "id": i},
			})
			open = append(open, i)
		}
		closeUntil(int64(1) << 62)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := telemetry.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
