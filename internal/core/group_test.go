package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldlp/internal/telemetry"
)

// Layer groups change where a message is queued, never what happens to
// it: for any DAG, any partition of its layers into groups and any
// interleaving of Inject and Run, a grouped LDLP stack must deliver what
// the ungrouped one delivers, flow by flow, run the same handlers the
// same number of times, drop the same arrivals at the same bound — and
// pay a queue op exactly where a message is injected or crosses a group
// boundary, nowhere else.

// groupCase is one generated scenario.
type groupCase struct {
	dag  randomDAG
	part []int // part[i] = label of layer i's group; -1 leaves it ungrouped
	opts Options
	ops  []int // a flow whose next message is injected, or -1 for a Run
}

func genGroupCase(rng intner) groupCase {
	c := groupCase{dag: genDAG(rng)}
	n := c.dag.layers
	// Labels drawn from fewer values than layers, so groups of one, of
	// linked and of unlinked layers, and ungrouped layers all occur.
	for i := 0; i < n; i++ {
		c.part = append(c.part, rng.Intn(n)-1)
	}
	c.opts = Options{Discipline: LDLP, BatchLimit: rng.Intn(6)}
	if rng.Intn(2) == 0 {
		c.opts.MaxQueued = 4 + rng.Intn(20)
	}
	flows := 1 + rng.Intn(6)
	for i, ops := 0, 20+rng.Intn(200); i < ops; i++ {
		if rng.Intn(8) == 0 {
			c.ops = append(c.ops, -1)
		} else {
			c.ops = append(c.ops, rng.Intn(flows))
		}
	}
	return c
}

// declareGroups applies the case's partition to a built stack.
func (c groupCase) declareGroups(s *Stack[equivMsg], layers []*Layer[equivMsg]) {
	byLabel := map[int][]*Layer[equivMsg]{}
	for i, label := range c.part {
		if label >= 0 {
			byLabel[label] = append(byLabel[label], layers[i])
		}
	}
	for label := 0; label < len(c.part); label++ {
		if len(byLabel[label]) > 0 {
			s.Group(byLabel[label]...)
		}
	}
}

// crossings counts the group boundaries flow's path crosses — the queue
// ops one of its messages costs beyond the inject.
func (c groupCase) crossings(flow int) int64 {
	var n int64
	for at := 0; len(c.dag.uppers[at]) > 0; {
		ups := c.dag.uppers[at]
		next := ups[flow%len(ups)]
		if c.part[at] < 0 || c.part[at] != c.part[next] {
			n++
		}
		at = next
	}
	return n
}

// groupRun is everything the property compares.
type groupRun struct {
	out       *delivery
	order     []equivMsg // global delivery order
	processed []int64
	stats     Stats
	pending   int
	wantOps   int64 // accepted injects + cross-group emits
}

// run plays the case's schedule on a plain stack, grouped or not.
func (c groupCase) run(disc Discipline, grouped bool) groupRun {
	opts := c.opts
	opts.Discipline = disc
	s := NewStack[equivMsg](opts)
	layers := buildEquivStack(c.dag, s)
	if grouped {
		c.declareGroups(s, layers)
	}
	r := groupRun{out: newDelivery()}
	s.SetSink(func(m equivMsg) {
		r.out.sink(m)
		r.order = append(r.order, m)
	})
	next := map[int]int{}
	for _, flow := range c.ops {
		if flow < 0 {
			s.Run()
			continue
		}
		m := equivMsg{flow: flow, seq: next[flow]}
		next[flow]++
		if s.Inject(m) == nil {
			r.wantOps += 1 + c.crossings(flow)
		}
	}
	s.Run()
	for _, l := range s.Layers() {
		r.processed = append(r.processed, l.Processed)
	}
	r.stats, r.pending = s.Stats(), s.Pending()
	return r
}

// check holds one case to the property, reporting through fail.
func (c groupCase) check(fail func(format string, args ...any)) {
	plain, grouped := c.run(LDLP, false), c.run(LDLP, true)
	if !plain.out.equal(grouped.out) {
		fail("per-flow deliveries diverge:\nungrouped %v\ngrouped   %v", plain.out.perFlow, grouped.out.perFlow)
	}
	if fmt.Sprint(plain.processed) != fmt.Sprint(grouped.processed) {
		fail("per-layer Processed %v grouped, %v ungrouped", grouped.processed, plain.processed)
	}
	ps, gs := plain.stats, grouped.stats
	if gs.Processed != ps.Processed || gs.Delivered != ps.Delivered || gs.Dropped != ps.Dropped {
		fail("stats diverge: grouped %+v, ungrouped %+v", gs, ps)
	}
	if plain.pending != 0 || grouped.pending != 0 {
		fail("messages left queued: %d ungrouped, %d grouped", plain.pending, grouped.pending)
	}
	if gs.QueueOps != grouped.wantOps {
		fail("grouped QueueOps = %d, want %d (accepted injects + cross-group emits)", gs.QueueOps, grouped.wantOps)
	}

	// One group over every layer is the conventional schedule run from
	// Run instead of Inject: the same global delivery order, and one
	// queue op per accepted message.
	one := c
	one.part = make([]int, len(c.part))
	one.opts.MaxQueued = 0
	whole, conv := one.run(LDLP, true), one.run(Conventional, false)
	if fmt.Sprint(whole.order) != fmt.Sprint(conv.order) {
		fail("one-group LDLP order %v, conventional %v", whole.order, conv.order)
	}
	if whole.stats.QueueOps != int64(len(whole.order)) || conv.stats.QueueOps != 0 {
		fail("QueueOps: one group %d for %d messages, conventional %d", whole.stats.QueueOps, len(whole.order), conv.stats.QueueOps)
	}
}

func TestGroupedMatchesUngrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		c := genGroupCase(rng)
		c.check(func(format string, args ...any) {
			t.Errorf("trial %d (uppers %v, groups %v, %+v): %s", trial, c.dag.uppers, c.part, c.opts, fmt.Sprintf(format, args...))
		})
	}
}

// TestShardedGroupedMatchesUngrouped is the same property with the build
// callback declaring the groups in every shard (meaningful under -race:
// each worker runs grouped direct calls on its private stack).
func TestShardedGroupedMatchesUngrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		c := genGroupCase(rng)
		c.opts.MaxQueued = 0 // intake races with the workers; drops are TestEquivalenceUnderDropTail's
		c.opts.Shards = 1 + rng.Intn(4)
		var wantOps int64
		run := func(grouped bool) (*delivery, Stats) {
			s := NewShardedStack(c.opts,
				func(m equivMsg) uint64 { return uint64(m.flow) },
				func(_ int, st *Stack[equivMsg]) {
					layers := buildEquivStack(c.dag, st)
					if grouped {
						c.declareGroups(st, layers)
					}
				})
			defer s.Close()
			out := newDelivery()
			s.SetSink(out.sink)
			next := map[int]int{}
			wantOps = 0
			for _, flow := range c.ops {
				if flow < 0 {
					s.Drain()
					continue
				}
				for s.Inject(equivMsg{flow: flow, seq: next[flow]}) != nil {
					s.Drain() // a full shard ring: wait, then retry
				}
				next[flow]++
				wantOps += 1 + c.crossings(flow)
			}
			s.Drain()
			return out, s.Stats()
		}
		plain, ps := run(false)
		grouped, gs := run(true)
		if !plain.equal(grouped) {
			t.Errorf("trial %d: per-flow deliveries diverge:\nungrouped %v\ngrouped   %v", trial, plain.perFlow, grouped.perFlow)
		}
		if gs.Processed != ps.Processed || gs.Delivered != ps.Delivered || gs.Dropped != 0 {
			t.Errorf("trial %d: stats diverge: grouped %+v, ungrouped %+v", trial, gs, ps)
		}
		if gs.QueueOps != wantOps {
			t.Errorf("trial %d: grouped QueueOps = %d, want %d", trial, gs.QueueOps, wantOps)
		}
	}
}

// byteDraws feeds a generator from fuzz input; exhausted input draws 0.
type byteDraws struct{ data []byte }

func (b *byteDraws) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v % n
}

// FuzzStackGroups decodes bytes into a graph, a partition and a schedule
// and holds them to the grouped-equals-ungrouped property.
func FuzzStackGroups(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return // the schedule is at most a few hundred draws
		}
		c := genGroupCase(&byteDraws{data: data})
		c.check(func(format string, args ...any) {
			t.Errorf("uppers %v, groups %v, %+v: %s", c.dag.uppers, c.part, c.opts, fmt.Sprintf(format, args...))
		})
	})
}

// mustPanic runs fn and returns what it panicked with.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() { msg = fmt.Sprint(recover()) }()
	fn()
	t.Errorf("%s did not panic", what)
	return ""
}

func TestGroupValidation(t *testing.T) {
	pass := func(next **Layer[int]) Handler[int] {
		return func(m int, emit Emit[int]) { emit(*next, m) }
	}
	build := func(d Discipline) (*Stack[int], []*Layer[int]) {
		s := NewStack[int](Options{Discipline: d})
		ls := make([]*Layer[int], 4)
		ls[0] = s.AddLayer("a", pass(&ls[1]))
		ls[1] = s.AddLayer("b", pass(&ls[2]))
		ls[2] = s.AddLayer("c", func(m int, emit Emit[int]) { emit(nil, m) })
		ls[3] = s.AddLayer("d", func(m int, emit Emit[int]) { emit(nil, m) })
		s.Link(ls[0], ls[1])
		s.Link(ls[1], ls[2])
		return s, ls
	}
	runOne := func(s *Stack[int]) Stats {
		if err := s.Inject(1); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s.Stats()
	}

	// A group of one layer, and a group of layers no link joins, leave
	// the schedule as it was: three queue ops for the three-layer path.
	s, ls := build(LDLP)
	s.Group(ls[1])
	s.Group(ls[0], ls[3])
	if st := runOne(s); st.QueueOps != 3 || st.Delivered != 1 {
		t.Errorf("groups of one and of unlinked layers: %+v, want 3 queue ops and 1 delivery", st)
	}

	// Under a call-through discipline Group is a no-op, twice over.
	s, ls = build(Conventional)
	s.Group(ls[0], ls[1])
	s.Group(ls[0], ls[1], ls[2])
	if st := runOne(s); st.QueueOps != 0 || st.Delivered != 1 {
		t.Errorf("conventional with Group calls: %+v, want 0 queue ops and 1 delivery", st)
	}

	// A layer joins at most one declared group.
	s, ls = build(LDLP)
	s.Group(ls[0], ls[1])
	if msg := mustPanic(t, "grouping b twice", func() { s.Group(ls[1], ls[2]) }); !strings.Contains(msg, "b is already in a group") {
		t.Errorf("grouping b twice panicked with %q", msg)
	}

	// Boundaries are fixed once a message has been queued.
	s, ls = build(LDLP)
	if err := s.Inject(1); err != nil {
		t.Fatal(err)
	}
	if msg := mustPanic(t, "Group after Inject", func() { s.Group(ls[0], ls[1]) }); !strings.Contains(msg, "after a message was queued") {
		t.Errorf("Group after Inject panicked with %q", msg)
	}

	// Link still decides who may emit to whom inside a group.
	s = NewStack[int](Options{Discipline: LDLP})
	var top *Layer[int]
	lo := s.AddLayer("lo", func(m int, emit Emit[int]) { emit(top, m) })
	top = s.AddLayer("top", func(m int, emit Emit[int]) { emit(nil, m) })
	s.Group(lo, top)
	if err := s.Inject(1); err != nil {
		t.Fatal(err)
	}
	if msg := mustPanic(t, "emit to an unlinked layer of the same group", func() { s.Run() }); !strings.Contains(msg, "lo emitted to unlinked layer top") {
		t.Errorf("unlinked emit inside a group panicked with %q", msg)
	}
}

// TestGroupPassNames pins what the flight recorder calls a pass: a layer
// that is queued to is registered under every layer its pass runs, each
// once even where two paths inside the group meet; a layer only ever
// called directly keeps its own name.
func TestGroupPassNames(t *testing.T) {
	const spec = "dev > eth\neth > ip\nip > tcp, udp\ntcp > opt, sock\nopt > sock\nudp > sock"
	names := func(d Discipline, group bool) string {
		handlers := map[string]Handler[int]{}
		for _, name := range []string{"dev", "eth", "ip", "tcp", "udp", "opt", "sock"} {
			handlers[name] = func(m int, emit Emit[int]) { emit(nil, m) }
		}
		s, by, err := BuildStack(Options{Discipline: d}, spec, handlers)
		if err != nil {
			t.Fatal(err)
		}
		if group {
			s.Group(by["dev"], by["eth"], by["ip"])
			s.Group(by["tcp"], by["udp"], by["opt"], by["sock"])
		}
		dom := telemetry.NewDomain("names", nil)
		s.SetTelemetry(dom.Tracer("shard0", 8), nil)
		reg := dom.Snapshot().Tracers[0]
		var out []string
		for _, l := range s.Layers() {
			out = append(out, l.Name()+"="+reg.LayerName(l.Index()))
		}
		return strings.Join(out, " ")
	}
	own := "dev=dev eth=eth ip=ip tcp=tcp udp=udp opt=opt sock=sock"
	if got := names(LDLP, false); got != own {
		t.Errorf("ungrouped LDLP registered %q, want every layer under its own name", got)
	}
	if got := names(Conventional, true); got != own {
		t.Errorf("conventional registered %q, want every layer under its own name", got)
	}
	want := "dev=dev+eth+ip eth=eth ip=ip tcp=tcp+opt+sock udp=udp+sock opt=opt sock=sock"
	if got := names(LDLP, true); got != want {
		t.Errorf("grouped LDLP registered\n%q, want\n%q", got, want)
	}
}
