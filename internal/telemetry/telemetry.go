// Package telemetry is the repository's always-on flight recorder: the
// observability substrate the paper itself argues for. §2 of the paper
// exists because Blackwell *traced* the receive path — nobody could see
// where small-message cycles went until the path was instrumented — and
// this package makes that kind of visibility a permanent, near-free
// property of the engine instead of a one-off experiment.
//
// Three pieces, layered:
//
//   - Per-shard ring-buffer event traces (Ring, Tracer): fixed-size
//     flight recorders holding the most recent scheduling events — one
//     record per layer pass (layer, batch size, start, duration), drop,
//     retransmit, fault verdict — recorded through a pre-registered
//     event table with zero allocations and no locks on the record
//     path. Each ring has one writer, which stores a record's three
//     words and then publishes a new head, so concurrent readers can
//     snapshot a live ring and discard the slots the writer may have
//     lapped instead of blocking it.
//
//   - Lock-free power-of-two-bucket histograms (Hist): batch-size and
//     latency distributions with mergeable snapshots, replacing ad-hoc
//     max/mean counters. Observe is a few atomic adds; snapshots merge
//     bucket-wise, so per-shard histograms aggregate exactly.
//
//   - A snapshot/export layer (Domain.Snapshot, ChromeTrace): stable
//     JSON for dashboards and the Chrome trace_event format for
//     Perfetto/chrome://tracing, which makes the §3 online batching rule
//     directly visible as per-shard, per-layer spans.
//
// Recording is gated by one global flag (Enable, default on:
// "flight recorder" means always-on). The disabled path is a couple of
// branches — no clock read, no ring write — which is what lets the hot
// path keep the gate permanently compiled in. Timestamps come from a
// caller-supplied Clock, never from the wall clock directly: simulated
// components (sim, netstack under an explicitly pumped Net) thread their
// simulated time, so traces replay bit-identically per seed, while
// real-time drivers (cmd/ldlptrace) pass a monotonic wall clock.
package telemetry

import "sync/atomic"

// enabled is the global record gate. Default on: the whole point of a
// flight recorder is that it is already running when something goes
// wrong. Disabling turns every record function into a couple of
// branches.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enable turns recording on or off process-wide and returns the previous
// state (convenient for benchmarks restoring the prior setting).
func Enable(on bool) bool { return enabled.Swap(on) }

// Clock supplies event timestamps in nanoseconds on whatever timeline
// its owner runs: simulated time for the explicitly pumped Net and the
// sim engine, a monotonic wall clock for real-time drivers. Keeping the
// clock injected (rather than calling time.Now here) is what lets the
// determinism analyzer enforce that sim-driven traces depend on the
// seed alone.
type Clock func() int64

// EventKind identifies one entry of the pre-registered event table.
// Kinds are registered at compile time — recording refers to them by
// index, so the record path never touches a string or a map.
type EventKind uint8

const (
	// EvNone marks an empty slot; it is never recorded.
	EvNone EventKind = iota
	// EvLayerEnter is the pass record: one run-to-completion pass of a
	// layer's input queue, written once, at pass exit. TS is the pass's
	// start, Dur its length, Arg the messages it processed; a pass of
	// layer 0 is also one LDLP batch forming (the §3 online batching
	// rule, observed). The name predates the single record and is kept
	// because the repository benchmark compiles against it.
	EvLayerEnter
	// EvDrop records a message dying mid-path; Arg is a DropReason.
	EvDrop
	// EvRetransmit records a transport retransmission; Arg is the
	// sequence number (or retry ordinal) being re-sent.
	EvRetransmit
	// EvFaultVerdict records a link-fault verdict applied to an arriving
	// frame; Arg is a VerdictBits mask.
	EvFaultVerdict
	// EvTxFlush records a transmit-side LDLP flush; Arg is the number of
	// frames that left in the batch.
	EvTxFlush

	numEventKinds
)

// KindInfo is one row of the event table: the stable export name and the
// Chrome trace_event phase the kind maps to ('X' complete spans, 'I'
// instants, 'C' counters).
type KindInfo struct {
	Name  string
	Phase byte
}

// kindTable is the pre-registered event table. Indexed by EventKind;
// recording validates kinds in tests, not on the hot path.
var kindTable = [numEventKinds]KindInfo{
	EvNone:         {Name: "none", Phase: 'I'},
	EvLayerEnter:   {Name: "layer", Phase: 'X'},
	EvDrop:         {Name: "drop", Phase: 'I'},
	EvRetransmit:   {Name: "retransmit", Phase: 'I'},
	EvFaultVerdict: {Name: "fault", Phase: 'I'},
	EvTxFlush:      {Name: "txflush", Phase: 'C'},
}

// Kind returns the table row for k (the zero row for out-of-range kinds,
// which only a corrupted snapshot could produce).
func (k EventKind) Kind() KindInfo {
	if k >= numEventKinds {
		return KindInfo{Name: "invalid", Phase: 'I'}
	}
	return kindTable[k]
}

// String returns the kind's registered export name.
func (k EventKind) String() string { return k.Kind().Name }

// DropReason attributes an EvDrop event. Each code but DropUnknown has
// exactly one netstack drop counter, and the netstack's one drop
// function moves both, so a trace reconciles against the counters.
type DropReason int64

const (
	DropUnknown DropReason = iota
	DropBadEther
	DropBadIP
	DropBadTCP
	DropBadUDP
	DropBadICMP
	DropNoSocket
	DropListenOverflow
	DropSockBuffer
	DropStackFull
	// DropTimeout is a TCP connection reaped after its retransmissions
	// went unanswered; DropReasmTimeout a partial datagram abandoned at
	// its reassembly deadline or evicted at the state cap.
	DropTimeout
	DropReasmTimeout

	numDropReasons
)

// dropNames is indexed by DropReason (an array, not a map: the export
// path iterates nothing nondeterministic).
var dropNames = [numDropReasons]string{
	"unknown", "bad-ether", "bad-ip", "bad-tcp", "bad-udp",
	"bad-icmp", "no-socket", "listen-overflow", "sock-buffer", "stack-full",
	"timeout", "reasm-timeout",
}

// String names the reason for export.
func (r DropReason) String() string {
	if r < 0 || r >= numDropReasons {
		return "invalid"
	}
	return dropNames[r]
}

// VerdictBits encode a fault injector's verdict in an EvFaultVerdict
// event's Arg: any subset of the mutation bits, or VerdictDrop alone.
type VerdictBits int64

const (
	VerdictDrop VerdictBits = 1 << iota
	VerdictDuplicate
	VerdictCorrupt
	VerdictDelay
	VerdictReorder

	// VerdictDeliver is the explicit "no impairment" verdict, so clean
	// deliveries are distinguishable from unrecorded frames.
	VerdictDeliver VerdictBits = 0
)

// String renders the verdict mask compactly ("drop", "dup+corrupt",
// "deliver").
func (v VerdictBits) String() string {
	if v == VerdictDeliver {
		return "deliver"
	}
	// Fixed probe order keeps the rendering deterministic.
	var s string
	appendBit := func(bit VerdictBits, name string) {
		if v&bit == 0 {
			return
		}
		if s != "" {
			s += "+"
		}
		s += name
	}
	appendBit(VerdictDrop, "drop")
	appendBit(VerdictDuplicate, "dup")
	appendBit(VerdictCorrupt, "corrupt")
	appendBit(VerdictDelay, "delay")
	appendBit(VerdictReorder, "reorder")
	return s
}
