package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Cross-discipline equivalence: for random DAG topologies and random
// injection sequences, Conventional, ILP, LDLP and sharded-LDLP must
// deliver the same multiset of messages and the same per-flow order —
// the disciplines change *scheduling*, never *semantics* (Figure 2 shows
// the same work in a different order). Each message routes through the
// DAG as a pure function of its flow, so a flow's messages follow one
// path and FIFO queues preserve their order under every schedule.

// equivMsg routes by flow; seq orders within the flow.
type equivMsg struct {
	flow int
	seq  int
}

// randomDAG generates a layer count and an upward edge set with a unique
// bottom layer and every layer reachable from it.
type randomDAG struct {
	layers int
	uppers [][]int // uppers[i] = indices of layers linked above i
}

// intner is the one draw the generators make: *rand.Rand for the seeded
// tests, the fuzzer's byte stream for FuzzStackGroups.
type intner interface{ Intn(n int) int }

func genDAG(rng intner) randomDAG {
	n := 3 + rng.Intn(5) // 3..7 layers
	d := randomDAG{layers: n, uppers: make([][]int, n)}
	// Guarantee reachability: every layer above the bottom gets one edge
	// from some lower layer; the bottom chains upward so it stays the
	// unique source.
	for i := 1; i < n; i++ {
		lo := rng.Intn(i)
		d.uppers[lo] = append(d.uppers[lo], i)
	}
	// Sprinkle extra upward edges for fan-out.
	for lo := 0; lo < n-1; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			if rng.Intn(3) == 0 && !contains(d.uppers[lo], hi) {
				d.uppers[lo] = append(d.uppers[lo], hi)
			}
		}
	}
	for i := range d.uppers {
		sort.Ints(d.uppers[i])
	}
	return d
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// buildEquivStack wires the DAG into a stack: each layer forwards a
// message to uppers[flow % len(uppers)], or out of the top when it has
// no uppers. The route depends only on (layer, flow) — deterministic.
func buildEquivStack(d randomDAG, s *Stack[equivMsg]) []*Layer[equivMsg] {
	layers := make([]*Layer[equivMsg], d.layers)
	for i := 0; i < d.layers; i++ {
		i := i
		layers[i] = s.AddLayer(fmt.Sprintf("L%d", i), func(m equivMsg, emit Emit[equivMsg]) {
			ups := d.uppers[i]
			if len(ups) == 0 {
				emit(nil, m)
				return
			}
			emit(layers[ups[m.flow%len(ups)]], m)
		})
	}
	for lo, ups := range d.uppers {
		for _, hi := range ups {
			s.Link(layers[lo], layers[hi])
		}
	}
	return layers
}

// delivery captures per-flow sequences for comparison.
type delivery struct {
	perFlow map[int][]int
	total   int
}

func newDelivery() *delivery { return &delivery{perFlow: map[int][]int{}} }

func (d *delivery) sink(m equivMsg) {
	d.perFlow[m.flow] = append(d.perFlow[m.flow], m.seq)
	d.total++
}

func (d *delivery) equal(o *delivery) bool {
	if d.total != o.total || len(d.perFlow) != len(o.perFlow) {
		return false
	}
	for f, seqs := range d.perFlow {
		if fmt.Sprint(o.perFlow[f]) != fmt.Sprint(seqs) {
			return false
		}
	}
	return true
}

// genInjection builds a random interleaving of flows with per-flow
// increasing seq.
func genInjection(rng *rand.Rand) []equivMsg {
	flows := 1 + rng.Intn(6)
	n := 20 + rng.Intn(200)
	next := make([]int, flows)
	msgs := make([]equivMsg, 0, n)
	for i := 0; i < n; i++ {
		f := rng.Intn(flows)
		msgs = append(msgs, equivMsg{flow: f, seq: next[f]})
		next[f]++
	}
	return msgs
}

func runPlain(d randomDAG, disc Discipline, batch int, msgs []equivMsg) *delivery {
	s := NewStack[equivMsg](Options{Discipline: disc, BatchLimit: batch})
	buildEquivStack(d, s)
	out := newDelivery()
	s.SetSink(out.sink)
	for _, m := range msgs {
		if err := s.Inject(m); err != nil {
			panic(err) // unbounded: cannot happen
		}
		// Interleave Run calls sometimes so LDLP sees both single-message
		// and batched schedules.
		if disc == LDLP && m.seq%7 == 3 {
			s.Run()
		}
	}
	s.Run()
	return out
}

func runSharded(d randomDAG, shards int, msgs []equivMsg) (*delivery, int64) {
	s := NewShardedStack(Options{Discipline: LDLP, Shards: shards, BatchLimit: 14},
		func(m equivMsg) uint64 { return uint64(m.flow) },
		func(_ int, st *Stack[equivMsg]) { buildEquivStack(d, st) })
	defer s.Close()
	out := newDelivery()
	s.SetSink(out.sink)
	for _, m := range msgs {
		if err := s.Inject(m); err != nil {
			panic(err)
		}
	}
	s.Drain()
	return out, s.Stats().Delivered
}

func TestCrossDisciplineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		d := genDAG(rng)
		msgs := genInjection(rng)

		conv := runPlain(d, Conventional, 0, msgs)
		ilp := runPlain(d, ILP, 0, msgs)
		ldlp := runPlain(d, LDLP, 0, msgs)
		ldlpCapped := runPlain(d, LDLP, 1+rng.Intn(5), msgs)
		shard, shardDelivered := runSharded(d, 1+rng.Intn(4), msgs)

		if conv.total != len(msgs) {
			t.Fatalf("trial %d: conventional delivered %d of %d", trial, conv.total, len(msgs))
		}
		for name, got := range map[string]*delivery{
			"ILP": ilp, "LDLP": ldlp, "LDLP-capped": ldlpCapped, "sharded-LDLP": shard,
		} {
			if !conv.equal(got) {
				t.Errorf("trial %d (layers=%d): %s deliveries diverge from Conventional\nconv: %v\n%s: %v",
					trial, d.layers, name, conv.perFlow, name, got.perFlow)
			}
		}
		if shardDelivered != int64(len(msgs)) {
			t.Errorf("trial %d: sharded Stats.Delivered = %d, want %d", trial, shardDelivered, len(msgs))
		}
	}
}

// TestEquivalenceUnderDropTail checks the bounded-buffer story: LDLP and
// sharded-LDLP with small MaxQueued drop with ErrStackFull, Stats.Dropped
// mirrors the error count, and everything accepted is still delivered in
// per-flow order.
func TestEquivalenceUnderDropTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		d := genDAG(rng)
		msgs := genInjection(rng)

		// Plain LDLP, never running between injects so the bound binds.
		s := NewStack[equivMsg](Options{Discipline: LDLP, MaxQueued: 10})
		buildEquivStack(d, s)
		out := newDelivery()
		s.SetSink(out.sink)
		errs := 0
		for _, m := range msgs {
			if err := s.Inject(m); err == ErrStackFull {
				errs++
			}
		}
		s.Run()
		if st := s.Stats(); int(st.Dropped) != errs || out.total != len(msgs)-errs {
			t.Errorf("trial %d plain: errs=%d Dropped=%d delivered=%d injected=%d",
				trial, errs, st.Dropped, out.total, len(msgs))
		}
		for f, seqs := range out.perFlow {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Errorf("trial %d plain: flow %d reordered after drops: %v", trial, f, seqs)
				}
			}
		}

		// Sharded with a tiny bound: same invariants.
		sh := NewShardedStack(Options{Discipline: LDLP, Shards: 2, MaxQueued: 8},
			func(m equivMsg) uint64 { return uint64(m.flow) },
			func(_ int, st *Stack[equivMsg]) { buildEquivStack(d, st) })
		shOut := newDelivery()
		sh.SetSink(shOut.sink)
		shErrs := 0
		for _, m := range msgs {
			if err := sh.Inject(m); err == ErrStackFull {
				shErrs++
			}
		}
		sh.Drain()
		if st := sh.Stats(); int(st.Dropped) != shErrs || shOut.total != len(msgs)-shErrs {
			t.Errorf("trial %d sharded: errs=%d Dropped=%d delivered=%d injected=%d",
				trial, shErrs, st.Dropped, shOut.total, len(msgs))
		}
		for f, seqs := range shOut.perFlow {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Errorf("trial %d sharded: flow %d reordered after drops: %v", trial, f, seqs)
				}
			}
		}
		sh.Close()
	}
}
