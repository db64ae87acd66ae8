// Package core implements Locality-Driven Layer Processing (LDLP), the
// paper's central contribution (§3): a scheduling discipline for protocol
// stacks that processes *batches of messages per layer* instead of one
// message through all layers, so that a layer's code is reused while it is
// still cache-resident — the protocol analogue of blocked matrix
// multiplication.
//
// The engine is generic over the message type: the synthetic simulator
// (internal/sim) runs it over cost-model messages, and the runnable
// netstack (internal/netstack) runs it over real mbuf chains.
//
// Scheduling rules, from §3.1–3.2:
//
//   - Every layer has an input queue. Higher layers have higher priority.
//   - A scheduled layer runs to completion: it processes every message in
//     its input queue before anything else runs.
//   - The lowest layer is the exception: it yields after processing as
//     many messages as fit in the data cache (the batch limit), so arrival
//     bursts cannot starve the upper layers.
//   - Under light load queues hold single messages and behaviour matches a
//     conventional stack; under heavy load batches form and instruction
//     locality improves. That load-adaptivity is the whole trick.
//
// The group rule: the layer is the unit of scheduling only because the
// paper's were each 6 KB of code against an 8 KB cache — §3 sizes the
// block to the cache. Layers far smaller than it are merged into a group
// (Stack.Group, at build time): an emit inside a group is a direct call,
// and only one that crosses a group boundary enqueues. By default every
// layer is its own group, which is the four rules above.
//
// A layer may feed more than one upper layer ("there can be more than
// one"), so the topology is a DAG, not only a chain.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"ldlp/internal/telemetry"
)

// Discipline selects how messages flow through the stack (Figure 2).
type Discipline int

const (
	// Conventional processes each message through every layer in turn by
	// direct call-through — the ALF-style structure with poor code
	// locality for small messages. To the engine it is every layer in
	// one group, run from Inject.
	Conventional Discipline = iota
	// ILP is integrated layer processing: the same outer control flow as
	// Conventional (each message traverses all layers before the next),
	// with the layers' data loops fused. The engine's control flow is the
	// conventional one; substrates model the fused data loops by charging
	// data costs once instead of per layer.
	ILP
	// LDLP enqueues messages between layers and runs the blocked,
	// priority-driven schedule described in the package comment.
	LDLP
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case Conventional:
		return "conventional"
	case ILP:
		return "ilp"
	case LDLP:
		return "ldlp"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Emit is passed to a layer handler so it can pass a message to an upper
// layer (or out of the stack with to == nil).
type Emit[M any] func(to *Layer[M], m M)

// Handler processes one message at one layer.
type Handler[M any] func(m M, emit Emit[M])

// fifo is a slice-backed queue that reuses its backing array.
type fifo[M any] struct {
	buf  []M
	head int
}

//ldlp:hotpath
func (q *fifo[M]) push(m M) { q.buf = append(q.buf, m) } //lint:ignore hotpathalloc amortized growth of a reused backing array; steady state never reallocates

//ldlp:hotpath
func (q *fifo[M]) pop() (M, bool) {
	var zero M
	if q.head >= len(q.buf) {
		return zero, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m, true
}

func (q *fifo[M]) len() int { return len(q.buf) - q.head }

// Layer is one protocol layer in a Stack.
type Layer[M any] struct {
	name    string
	index   int // position in Stack.layers; higher = higher priority
	group   int // emits to a layer of the same group are direct calls
	handler Handler[M]
	queue   fifo[M]
	uppers  bitset // indices of the layers Link lets this one emit to

	// emit is this layer's Emit callback, built once at AddLayer.
	// Constructing it per handler invocation (a closure capturing the
	// layer) would heap-allocate on every message — the kind of
	// per-message overhead the paper's whole argument is against.
	emit Emit[M]

	// Processed counts handler invocations at this layer.
	Processed int64
}

// Name returns the layer's name.
func (l *Layer[M]) Name() string { return l.name }

// Index returns the layer's position in the stack (bottom = 0) — the
// index telemetry events are recorded under.
func (l *Layer[M]) Index() int { return l.index }

// Options configures a Stack.
type Options struct {
	// Discipline selects the processing schedule.
	Discipline Discipline
	// BatchLimit caps how many messages the lowest layer processes before
	// yielding to higher-priority layers — the paper sizes it so a batch
	// of messages fits in the data cache. 0 means unlimited. Only
	// meaningful for LDLP.
	BatchLimit int
	// MaxQueued bounds the total number of messages buffered inside the
	// stack; Inject fails beyond it (drop-tail, like the paper's
	// 500-packet buffer). 0 means unlimited.
	MaxQueued int
	// Shards is the worker count for NewShardedStack (0 or 1 = one
	// shard). A plain Stack ignores it: the single-threaded engine is
	// the degenerate one-shard case.
	Shards int
}

// Stats aggregates engine-level accounting that the cost models consume.
type Stats struct {
	// QueueOps counts enqueue+dequeue pairs; the paper estimates ~40
	// instructions each (§3.2), charged by the simulator per op.
	QueueOps int64
	// Processed counts handler invocations across all layers.
	Processed int64
	// Delivered counts messages that left the top of the stack.
	Delivered int64
	// Dropped counts messages rejected by MaxQueued.
	Dropped int64
	// Rounds counts scheduler passes (LDLP only).
	Rounds int64
	// LargestBatch is the largest run-to-completion batch any layer
	// processed in one scheduling.
	LargestBatch int
}

// ErrStackFull is returned by Inject when MaxQueued is exceeded.
var ErrStackFull = errors.New("core: stack buffer full")

// Sink receives messages that emerge from the top of the stack.
type Sink[M any] func(m M)

// Stack is a protocol stack bound to one discipline.
type Stack[M any] struct {
	opts    Options
	layers  []*Layer[M]
	bottom  *Layer[M]
	sink    Sink[M]
	stats   Stats
	queued  int
	pending bitset // layers whose input queue is non-empty

	// onProcess, if set, is called before each handler invocation — the
	// simulator charges per-layer cache and cycle costs here.
	onProcess func(l *Layer[M], m M)

	// tracer, if set, flight-records the LDLP schedule: one record per
	// group pass. batchHist, if set, observes the size of every
	// bottom-layer batch. Both are nil-safe / gate-checked inside
	// telemetry, so the unwired stack pays nothing.
	tracer    *telemetry.Tracer
	batchHist *telemetry.Hist
}

// NewStack creates an empty stack. Layers are added bottom-up with
// AddLayer; the first layer added is the lowest (the injection point).
func NewStack[M any](opts Options) *Stack[M] {
	if opts.BatchLimit < 0 || opts.MaxQueued < 0 {
		panic(fmt.Sprintf("core: negative option in %+v", opts))
	}
	return &Stack[M]{opts: opts}
}

// AddLayer appends a layer above all existing layers and returns it.
func (s *Stack[M]) AddLayer(name string, h Handler[M]) *Layer[M] {
	if h == nil {
		panic("core: nil handler for layer " + name)
	}
	l := &Layer[M]{name: name, handler: h, index: len(s.layers)}
	if s.opts.Discipline == LDLP {
		l.group = l.index // its own group until Group says otherwise
	}
	l.emit = func(to *Layer[M], next M) {
		if to == nil {
			s.deliver(next)
			return
		}
		s.checkLinked(l, to)
		if to.group == l.group {
			s.process(to, next)
		} else {
			s.enqueue(to, next)
		}
	}
	s.layers = append(s.layers, l)
	s.pending = s.pending.grown(len(s.layers))
	if s.bottom == nil {
		s.bottom = l
	}
	return l
}

// Link declares that lower may emit messages to upper. Emitting to an
// unlinked layer panics, which catches topology bugs early. Links must
// point upward (to a higher-priority layer): the run-to-completion
// schedule depends on it.
func (s *Stack[M]) Link(lower, upper *Layer[M]) {
	if upper.index <= lower.index {
		panic(fmt.Sprintf("core: link %s -> %s does not point upward", lower.name, upper.name))
	}
	lower.uppers = lower.uppers.grown(upper.index + 1)
	lower.uppers.set(upper.index)
}

// Group merges layers into one scheduling group: an emit between two of
// them is a direct call, so a message pays one queue op and one pass
// record where it enters the group, not at each layer. Link still decides
// who may emit to whom. Boundaries are fixed at build time: Group panics
// once a message has been queued or if a layer is already in a declared
// group. A no-op under the call-through disciplines, one group already.
func (s *Stack[M]) Group(layers ...*Layer[M]) {
	if s.opts.Discipline != LDLP {
		return
	}
	if s.stats.QueueOps > 0 {
		panic("core: Group after a message was queued")
	}
	for _, l := range layers {
		if l.group < 0 {
			panic("core: layer " + l.name + " is already in a group")
		}
		l.group = -1 - layers[0].index // declared ids are negative, default ones not
	}
}

// OnProcess installs a per-handler-invocation hook (cost accounting).
func (s *Stack[M]) OnProcess(fn func(l *Layer[M], m M)) { s.onProcess = fn }

// SetTelemetry attaches a flight-recorder tracer and a batch-size
// histogram to the stack. Layers already added (and grouped) are
// registered with the tracer by index so exported traces resolve them: a
// layer that is queued to under the name of everything its pass runs
// ("tcp+socket"), any other, which records only drops, under its own.
// Either argument may be nil. Setup path, not for concurrent use with Run.
func (s *Stack[M]) SetTelemetry(tr *telemetry.Tracer, batch *telemetry.Hist) {
	s.tracer = tr
	s.batchHist = batch
	for _, l := range s.layers {
		name := l.name
		if s.queuedTo(l) {
			name = s.passName(l, bitset(nil).grown(len(s.layers)))
		}
		tr.RegisterLayer(l.index, name)
	}
}

// queuedTo reports whether anything enqueues to l: Inject, or an emit
// from another group.
func (s *Stack[M]) queuedTo(l *Layer[M]) bool {
	for _, lo := range s.layers[:l.index] {
		if lo.group != l.group && lo.uppers.has(l.index) {
			return true
		}
	}
	return l == s.bottom && s.opts.Discipline == LDLP
}

// passName joins l's name with those of the layers of its group that its
// emits reach by direct call, each once.
func (s *Stack[M]) passName(l *Layer[M], seen bitset) string {
	name := l.name
	seen.set(l.index)
	for _, u := range s.layers[l.index+1:] {
		if u.group == l.group && l.uppers.has(u.index) && !seen.has(u.index) {
			name += "+" + s.passName(u, seen)
		}
	}
	return name
}

// SetSink installs the receiver for messages leaving the stack top.
func (s *Stack[M]) SetSink(fn Sink[M]) { s.sink = fn }

// Layers returns the layers, bottom first.
func (s *Stack[M]) Layers() []*Layer[M] { return s.layers }

// Stats returns a copy of the counters.
func (s *Stack[M]) Stats() Stats { return s.stats }

// Pending reports the number of messages buffered inside the stack.
func (s *Stack[M]) Pending() int { return s.queued }

// Inject presents one arriving message to the bottom layer.
//
// Under Conventional and ILP every layer is in one group, so nothing is
// ever queued: the bottom handler runs here and each emit is a direct
// call — the message has crossed the stack depth-first on return. Under
// LDLP it is queued; call Run to process. Inject returns ErrStackFull if
// the stack's buffer is full.
//
//ldlp:hotpath
func (s *Stack[M]) Inject(m M) error {
	if s.bottom == nil {
		panic("core: Inject on a stack with no layers")
	}
	if s.opts.Discipline != LDLP {
		s.process(s.bottom, m)
		return nil
	}
	if s.opts.MaxQueued > 0 && s.queued >= s.opts.MaxQueued {
		s.stats.Dropped++
		return ErrStackFull
	}
	s.enqueue(s.bottom, m)
	return nil
}

//ldlp:hotpath
func (s *Stack[M]) process(l *Layer[M], m M) {
	if s.onProcess != nil {
		s.onProcess(l, m)
	}
	l.Processed++
	s.stats.Processed++
	l.handler(m, l.emit)
}

//ldlp:hotpath
func (s *Stack[M]) deliver(m M) {
	s.stats.Delivered++
	if s.sink != nil {
		s.sink(m)
	}
}

//ldlp:hotpath
func (s *Stack[M]) enqueue(l *Layer[M], m M) {
	l.queue.push(m)
	s.pending.set(l.index)
	s.queued++
	s.stats.QueueOps++
}

func (s *Stack[M]) checkLinked(from, to *Layer[M]) {
	if from.uppers.has(to.index) && s.layers[to.index] == to {
		return
	}
	panic(fmt.Sprintf("core: %s emitted to unlinked layer %s", from.name, to.name))
}

// Run drains the stack under the LDLP schedule and returns the number of
// messages delivered out of the top during this call. It is a no-op for
// call-through disciplines (their Inject already completed processing).
//
// Schedule: repeatedly pick the highest nonempty layer; run it to
// completion (the bottom layer stops after BatchLimit messages); repeat
// until every queue is empty.
func (s *Stack[M]) Run() int64 {
	if s.opts.Discipline != LDLP {
		return 0
	}
	startDelivered := s.stats.Delivered
	now := s.tracer.Now()
	for i := s.pending.highest(); i >= 0; i = s.pending.highest() {
		s.stats.Rounds++
		now = s.runLayer(s.layers[i], now)
	}
	return s.stats.Delivered - startDelivered
}

// runLayer processes the layer's queue to completion (bounded by
// BatchLimit at the bottom layer), each message through the layer's group
// by direct call and into a queue where it leaves it. start is the
// tracer-clock time the previous pass ended; it returns its own end.
//
//ldlp:hotpath
func (s *Stack[M]) runLayer(l *Layer[M], start int64) int64 {
	limit := l.queue.len()
	if l == s.bottom && s.opts.BatchLimit > 0 && limit > s.opts.BatchLimit {
		limit = s.opts.BatchLimit
	}
	if limit > s.stats.LargestBatch {
		s.stats.LargestBatch = limit
	}
	if l == s.bottom && s.batchHist != nil {
		// One batch has formed at the injection layer — the §3 online
		// batching rule, observed.
		s.batchHist.Observe(int64(limit))
	}
	for i := 0; i < limit; i++ {
		m, ok := l.queue.pop()
		if !ok {
			break
		}
		s.queued--
		s.process(l, m)
	}
	if l.queue.len() == 0 {
		s.pending.clear(l.index)
	}
	return s.tracer.Pass(l.index, limit, start)
}

// bitset is a set of layer indices: one word per 64 layers.
type bitset []uint64

// grown returns b with room for indices below n.
func (b bitset) grown(n int) bitset {
	for len(b)*64 < n {
		b = append(b, 0)
	}
	return b
}

//ldlp:hotpath
func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

//ldlp:hotpath
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

//ldlp:hotpath
func (b bitset) has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

// highest returns the largest index in the set, or -1 if it is empty.
//
//ldlp:hotpath
func (b bitset) highest() int {
	for w := len(b) - 1; w >= 0; w-- {
		if b[w] != 0 {
			return w<<6 + bits.Len64(b[w]) - 1
		}
	}
	return -1
}
