package telemetry

import "sync/atomic"

// DefaultRingCap is the per-shard flight-recorder depth when the owner
// does not choose one: deep enough to hold several scheduling rounds of
// history, small enough (24 KB) that every host/shard can afford one.
const DefaultRingCap = 1024

// slot is one ring entry. The words are atomic so readers can copy a
// live ring without locks or races; which slots a reader may trust is
// decided by the ring's published head, not by anything in the slot.
type slot struct {
	ts   atomic.Int64
	meta atomic.Uint64 // kind | layer<<8 | dur<<16 (48 bits of ns, saturating)
	arg  atomic.Int64
}

// Ring is a fixed-size flight-recorder trace: the most recent events,
// oldest overwritten first.
//
// A ring has exactly ONE writer at a time. The repository's two owners
// are the shard worker (its receive path's ring: engine passes and
// handler drops) and the pump (the host's "pump" ring, written from the
// goroutine that drives Pump/Tick); a hand-over between goroutines
// needs a happens-before edge, which Drain's quiescence gives. The
// writer neither locks nor allocates: it fills slot pos, then publishes
// pos+1. Any number of readers snapshot concurrently without blocking it.
type Ring struct {
	slots []slot
	mask  uint64
	pos   atomic.Uint64 // published head: events [0, pos) are complete
}

// NewRing builds a ring with capacity rounded up to a power of two
// (minimum 2; capacity <= 0 selects DefaultRingCap).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap reports the ring's (power-of-two) capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded reports how many events have ever been recorded; a snapshot
// can return the last Cap()-1 of them (the slot the writer fills next
// is never trusted).
func (r *Ring) Recorded() uint64 { return r.pos.Load() }

// Record appends one instantaneous event (see RecordSpan).
//
//ldlp:hotpath
func (r *Ring) Record(ts int64, kind EventKind, layer uint8, arg int64) {
	r.RecordSpan(ts, 0, kind, layer, arg)
}

// RecordSpan appends one event that started at ts and lasted dur
// nanoseconds. Single writer (see Ring): the slot the head names is
// filled before the head advances, so events below a head are whole.
//
//ldlp:hotpath
func (r *Ring) RecordSpan(ts, dur int64, kind EventKind, layer uint8, arg int64) {
	i := r.pos.Load()
	s := &r.slots[i&r.mask]
	s.ts.Store(ts)
	s.meta.Store(uint64(kind) | uint64(layer)<<8 | uint64(min(max(dur, 0), 1<<48-1))<<16)
	s.arg.Store(arg)
	r.pos.Store(i + 1)
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the event's logical index: monotonic per ring, so gaps
	// reveal exactly which events a snapshot lost to overwriting.
	Seq uint64 `json:"seq"`
	// TS is the Clock timestamp in nanoseconds (a span's start).
	TS int64 `json:"ts"`
	// Dur is a span's length in nanoseconds; zero for instants.
	Dur int64 `json:"dur,omitempty"`
	// Kind indexes the pre-registered event table.
	Kind EventKind `json:"kind"`
	// Layer is the recording layer's index (meaningful for pass and
	// drop events; zero otherwise).
	Layer uint8 `json:"layer"`
	// Arg is the kind-specific payload (batch size, DropReason, ...).
	Arg int64 `json:"arg"`
}

// oldest is the lowest index a reader may trust under published head
// head: a writer that has published head may already be filling the
// slot of event head, which held event head-Cap.
func (r *Ring) oldest(head uint64) uint64 {
	if c := uint64(len(r.slots)); head >= c {
		return head - c + 1
	}
	return 0
}

// Snapshot returns the retained events oldest-first, contiguous in Seq
// and ending at head-1, where head is the published head the copy
// started from (head - len(events) earlier events are gone). Safe
// against a concurrent writer: the head is read again after the copy,
// and indices it no longer vouches for (see oldest) are discarded.
func (r *Ring) Snapshot() (events []Event, head uint64) {
	head = r.pos.Load()
	lo := r.oldest(head)
	events = make([]Event, 0, head-lo)
	for i := lo; i < head; i++ {
		s := &r.slots[i&r.mask]
		meta := s.meta.Load()
		events = append(events, Event{
			Seq:   i,
			TS:    s.ts.Load(),
			Dur:   int64(meta >> 16),
			Kind:  EventKind(meta & 0xff),
			Layer: uint8(meta >> 8),
			Arg:   s.arg.Load(),
		})
	}
	keep := min(max(lo, r.oldest(r.pos.Load())), head)
	return events[keep-lo:], head
}
