// Sharded LDLP: the paper's engine runs on one processor — its batching
// rule keeps *layer code* cache-resident on that one core. A modern
// machine has many cores, each with its own primary caches, so the
// natural extension (receive-side scaling in NICs, FlexTOE-style
// pipeline parallelism) is to partition messages across cores by *flow*
// and run an independent LDLP schedule per core: every shard keeps the
// paper's per-layer locality, and flows never migrate, so per-flow
// ordering is preserved without cross-core synchronisation on the hot
// path.
//
// ShardedStack implements that: N single-threaded Stacks, one per worker
// goroutine, fed through per-shard bounded input queues by a caller-
// supplied flow hash. Each worker hands a round's deliveries to the
// caller's Sink itself, in one pass under one mutex, so the Sink runs
// serialized exactly as with a plain Stack; engine Stats are summed
// from per-shard counters when read.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// defaultShardQueue bounds a shard's input queue when Options.MaxQueued
// is 0 (channels cannot be unbounded; this is deep enough that only a
// pathological burst hits it).
const defaultShardQueue = 4096

// ShardedStack partitions messages across Shards independent Stacks by a
// flow hash and runs each under its own worker goroutine — N workers
// and nothing else.
//
// Concurrency contract:
//
//   - Inject is safe from any number of goroutines.
//   - The Sink runs on the delivering shard's worker, one call at a
//     time; it is never called concurrently with itself. SetSink must
//     be called before the first Inject.
//   - Messages of the same flow (equal hash) are processed by one shard
//     in injection order and delivered in that order; ordering across
//     flows is unspecified.
//   - Drain blocks until every accepted message has been fully processed
//     and its deliveries have left the Sink.
//   - Close shuts the workers down (processing anything still queued);
//     Inject after Close panics.
type ShardedStack[M any] struct {
	hash func(M) uint64

	shards []*shard[M]
	sink   Sink[M]
	// sinkMu serializes the Sink across workers: taken once per round,
	// around the pass that hands the round's deliveries over.
	sinkMu sync.Mutex

	// pending counts messages accepted by Inject whose deliveries have
	// not yet left the Sink. Whoever takes it to zero broadcasts idle
	// (see settle); Drain parks there.
	pending atomic.Int64
	dropped atomic.Int64
	idleMu  sync.Mutex
	idle    sync.Cond

	workerWG sync.WaitGroup
	closed   sync.Once
}

// shard is one worker's private engine: a single-threaded Stack, the
// bounded input queue feeding it, and what the worker publishes.
type shard[M any] struct {
	stack *Stack[M]
	in    chan M
	// done is the current round's deliveries (worker-local), handed to
	// the Sink after Run and cleared for reuse — one round bounds it.
	done []M
	// The stack's counters as of the last finished round: stored by the
	// worker alone, summed by Stats when read.
	queueOps, processed, delivered, rounds, largestBatch atomic.Int64
}

// NewShardedStack creates a sharded stack with opts.Shards workers (0 or
// 1 means one shard — still concurrent with the caller, but with no
// cross-shard parallelism). hash maps a message to its flow; messages
// with equal hash values are guaranteed per-flow FIFO processing. build
// is called once per shard to add layers and links to that shard's
// private Stack, exactly as with NewStack; it must not call SetSink (the
// sharded stack owns the per-shard sinks).
//
// Options.MaxQueued bounds the messages buffered across all shards
// (drop-tail at Inject, like the paper's 500-packet buffer), divided
// evenly among the per-shard input queues. Options.BatchLimit applies
// per shard.
func NewShardedStack[M any](opts Options, hash func(M) uint64, build func(shard int, s *Stack[M])) *ShardedStack[M] {
	if hash == nil {
		panic("core: NewShardedStack requires a flow hash")
	}
	if build == nil {
		panic("core: NewShardedStack requires a shard builder")
	}
	n := max(opts.Shards, 1)
	perShard := defaultShardQueue
	if opts.MaxQueued > 0 {
		perShard = (opts.MaxQueued + n - 1) / n
	}
	s := &ShardedStack[M]{
		hash:   hash,
		shards: make([]*shard[M], n),
	}
	s.idle.L = &s.idleMu
	inner := opts
	inner.Shards = 0
	inner.MaxQueued = 0 // intake is bounded by the shard input queues
	for i := 0; i < n; i++ {
		sh := &shard[M]{stack: NewStack[M](inner), in: make(chan M, perShard)}
		build(i, sh.stack)
		sh.stack.SetSink(func(m M) { sh.done = append(sh.done, m) })
		s.shards[i] = sh
		s.workerWG.Add(1)
		go s.worker(sh)
	}
	return s
}

// SetSink installs the receiver for messages leaving any shard's stack
// top. It runs on the delivering shard's worker, never concurrently
// with itself. Must be called before the first Inject.
func (s *ShardedStack[M]) SetSink(fn Sink[M]) { s.sink = fn }

// Inject routes one arriving message to its flow's shard. It returns
// ErrStackFull (counted in Stats.Dropped) when that shard's input queue
// is full — drop-tail, matching the single-threaded engine's MaxQueued
// behaviour. Safe for concurrent use.
func (s *ShardedStack[M]) Inject(m M) error {
	sh := s.shards[s.hash(m)%uint64(len(s.shards))]
	s.pending.Add(1)
	select {
	case sh.in <- m:
		return nil
	default:
		s.dropped.Add(1)
		s.settle(1)
		return ErrStackFull
	}
}

// settle retires n messages from pending and, at zero, wakes every
// parked Drain. It is the only decrement: a refused Inject's roll-back
// can be the one that reaches zero, just as a worker's end of round can.
func (s *ShardedStack[M]) settle(n int) {
	if s.pending.Add(int64(-n)) == 0 {
		s.idleMu.Lock()
		s.idle.Broadcast()
		s.idleMu.Unlock()
	}
}

// worker is a shard's processing loop: take one message, opportunistically
// drain whatever else has arrived (the paper's adaptive batching rule at
// the intake), run the shard's schedule to completion, flush, publish —
// and only then settle, so Drain covers the Sink and the stats.
func (s *ShardedStack[M]) worker(sh *shard[M]) {
	defer s.workerWG.Done()
	for m := range sh.in {
		batch := 1
		s.injectLocal(sh, m)
	fill:
		for {
			select {
			case m2, ok := <-sh.in:
				if !ok {
					break fill
				}
				s.injectLocal(sh, m2)
				batch++
			default:
				break fill
			}
		}
		sh.stack.Run()
		s.flush(sh)
		sh.publish()
		s.settle(batch)
	}
}

// injectLocal feeds one message into the shard's private stack. The
// inner stack is unbounded (intake is bounded by the shard queue), so
// Inject cannot fail; under call-through disciplines it processes the
// message synchronously.
func (s *ShardedStack[M]) injectLocal(sh *shard[M], m M) {
	if err := sh.stack.Inject(m); err != nil {
		// Unreachable (inner MaxQueued is 0), but do not lose accounting
		// if that invariant ever changes.
		s.dropped.Add(1)
	}
}

// flush hands the round's deliveries to the caller's Sink in one pass
// under one lock — the batching rule applied to our own hand-off — in
// the order the shard's stack delivered them.
func (s *ShardedStack[M]) flush(sh *shard[M]) {
	if s.sink != nil && len(sh.done) > 0 {
		s.sinkMu.Lock()
		for _, m := range sh.done {
			s.sink(m)
		}
		s.sinkMu.Unlock()
	}
	clear(sh.done) // release for GC
	sh.done = sh.done[:0]
}

// publish stores the shard's engine counters where readers may load them.
func (sh *shard[M]) publish() {
	st := sh.stack.Stats()
	sh.queueOps.Store(st.QueueOps)
	sh.processed.Store(st.Processed)
	sh.delivered.Store(st.Delivered)
	sh.rounds.Store(st.Rounds)
	sh.largestBatch.Store(int64(st.LargestBatch))
}

// stats loads the counters publish stored.
func (sh *shard[M]) stats() Stats {
	return Stats{
		QueueOps:     sh.queueOps.Load(),
		Processed:    sh.processed.Load(),
		Delivered:    sh.delivered.Load(),
		Rounds:       sh.rounds.Load(),
		LargestBatch: int(sh.largestBatch.Load()),
	}
}

// Stats returns the engine counters summed across shards (LargestBatch
// is the maximum). Exact once Drain has returned; a point-in-time
// snapshot while workers are busy.
func (s *ShardedStack[M]) Stats() Stats {
	total := Stats{Dropped: s.dropped.Load()}
	for _, sh := range s.shards {
		st := sh.stats()
		total.QueueOps += st.QueueOps
		total.Processed += st.Processed
		total.Delivered += st.Delivered
		total.Rounds += st.Rounds
		total.LargestBatch = max(total.LargestBatch, st.LargestBatch)
	}
	return total
}

// ShardStats returns one shard's engine counters as of its last finished
// round. Exact once Drain or Close has returned.
func (s *ShardedStack[M]) ShardStats(i int) Stats { return s.shards[i].stats() }

// Pending reports messages accepted but not yet fully processed (queued,
// in flight inside a shard, or awaiting the Sink).
func (s *ShardedStack[M]) Pending() int { return int(s.pending.Load()) }

// QueueDepths reports each shard's current input-queue depth (messages
// accepted by Inject that its worker has not yet taken). A point-in-time
// snapshot for monitoring — depths move while workers run.
func (s *ShardedStack[M]) QueueDepths() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = len(sh.in)
	}
	return out
}

// Drain blocks until every message accepted so far has been processed
// and all resulting deliveries have passed through the Sink. It is the
// sharded analogue of Run: Inject a burst, then Drain. One atomic load
// when idle; otherwise it parks until settle broadcasts.
func (s *ShardedStack[M]) Drain() {
	if s.pending.Load() == 0 {
		return
	}
	s.idleMu.Lock()
	for s.pending.Load() != 0 {
		s.idle.Wait()
	}
	s.idleMu.Unlock()
}

// Close processes everything still queued, stops the workers, and waits
// for them to exit. Idempotent. Inject after Close panics.
func (s *ShardedStack[M]) Close() {
	s.closed.Do(func() {
		for _, sh := range s.shards {
			close(sh.in)
		}
		s.workerWG.Wait()
	})
}

// FNV-1a, for callers that hash flow keys byte-wise (netstack hashes the
// 4-tuple with this).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashBytes accumulates bytes into an FNV-1a hash. Seed with HashSeed.
func HashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// HashSeed is the FNV-1a offset basis.
func HashSeed() uint64 { return fnvOffset64 }

// BuildShardedStack assembles a ShardedStack from a protocol-graph spec
// (see ParseGraph): every shard gets an identical topology whose handlers
// come from handlers(shard), so per-shard handler state stays private.
// The returned layer maps (one per shard) let handlers emit by name.
func BuildShardedStack[M any](opts Options, spec string, hash func(M) uint64, handlers func(shard int) map[string]Handler[M]) (*ShardedStack[M], []map[string]*Layer[M], error) {
	g, err := ParseGraph(spec)
	if err != nil {
		return nil, nil, err
	}
	byShard := make([]map[string]*Layer[M], max(opts.Shards, 1))
	var buildErr error
	s := NewShardedStack(opts, hash, func(i int, st *Stack[M]) {
		// A shard whose handlers are incomplete keeps an empty stack; the
		// error return below closes it before anything is injected.
		byName, err := populate(st, g, handlers(i))
		if err != nil {
			buildErr = fmt.Errorf("core: shard %d: %w", i, err)
		}
		byShard[i] = byName
	})
	if buildErr != nil {
		s.Close()
		return nil, nil, buildErr
	}
	return s, byShard, nil
}
