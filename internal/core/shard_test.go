package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardMsg is the unit used by the sharded-engine tests: flow selects the
// shard, seq orders messages within the flow.
type shardMsg struct {
	flow int
	seq  int
}

func shardHash(m shardMsg) uint64 { return uint64(m.flow) }

// buildShardChain adds an n-layer pass-through chain to one shard's
// stack (every message traverses all layers, then leaves the top).
func buildShardChain(n int) func(int, *Stack[shardMsg]) {
	return func(_ int, s *Stack[shardMsg]) {
		layers := make([]*Layer[shardMsg], n)
		for i := 0; i < n; i++ {
			i := i
			layers[i] = s.AddLayer(fmt.Sprintf("L%d", i+1), func(m shardMsg, emit Emit[shardMsg]) {
				if i+1 < n {
					emit(s.Layers()[i+1], m)
				} else {
					emit(nil, m)
				}
			})
		}
		for i := 0; i+1 < n; i++ {
			s.Link(layers[i], layers[i+1])
		}
	}
}

func TestShardedDeliversAllPreservingFlowOrder(t *testing.T) {
	const flows, perFlow = 8, 200
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 4, BatchLimit: 14},
		shardHash, buildShardChain(3))
	defer s.Close()

	got := make(map[int][]int)
	s.SetSink(func(m shardMsg) { got[m.flow] = append(got[m.flow], m.seq) })

	for seq := 0; seq < perFlow; seq++ {
		for f := 0; f < flows; f++ {
			if err := s.Inject(shardMsg{flow: f, seq: seq}); err != nil {
				t.Fatalf("Inject(%d,%d): %v", f, seq, err)
			}
		}
	}
	s.Drain()

	for f := 0; f < flows; f++ {
		if len(got[f]) != perFlow {
			t.Fatalf("flow %d delivered %d messages, want %d", f, len(got[f]), perFlow)
		}
		for i, seq := range got[f] {
			if seq != i {
				t.Fatalf("flow %d reordered: position %d has seq %d", f, i, seq)
			}
		}
	}

	st := s.Stats()
	if st.Delivered != flows*perFlow {
		t.Errorf("Stats.Delivered = %d, want %d", st.Delivered, flows*perFlow)
	}
	if st.Processed != 3*flows*perFlow {
		t.Errorf("Stats.Processed = %d, want %d", st.Processed, 3*flows*perFlow)
	}
	if st.Dropped != 0 {
		t.Errorf("Stats.Dropped = %d, want 0", st.Dropped)
	}
	// Per-shard stats must sum to the aggregate (valid after Drain).
	var sum int64
	for i := range s.shards {
		sum += s.ShardStats(i).Delivered
	}
	if sum != st.Delivered {
		t.Errorf("shard Delivered sum = %d, aggregate = %d", sum, st.Delivered)
	}
}

func TestShardedDropTailCountsMatchInjectErrors(t *testing.T) {
	// One flow, tiny buffer, a burst far beyond it: every ErrStackFull
	// must be mirrored in Stats.Dropped, and accepted = delivered.
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 2, MaxQueued: 8},
		shardHash, buildShardChain(2))
	defer s.Close()
	var delivered atomic.Int64
	s.SetSink(func(shardMsg) { delivered.Add(1) })

	const burst = 5000
	errs := 0
	for i := 0; i < burst; i++ {
		if err := s.Inject(shardMsg{flow: 1, seq: i}); err != nil {
			if err != ErrStackFull {
				t.Fatalf("Inject error = %v, want ErrStackFull", err)
			}
			errs++
		}
	}
	s.Drain()
	st := s.Stats()
	if int(st.Dropped) != errs {
		t.Errorf("Stats.Dropped = %d, Inject errors = %d", st.Dropped, errs)
	}
	if int(st.Delivered) != burst-errs {
		t.Errorf("Delivered = %d, accepted = %d", st.Delivered, burst-errs)
	}
	if errs == 0 {
		t.Error("expected some drops with MaxQueued=8 and a 5000-message burst")
	}
}

func TestShardedSingleShardMatchesPlainStack(t *testing.T) {
	// Shards<=1 must behave exactly like the single-threaded engine on
	// one flow: same deliveries, same processed count.
	plain, _ := buildChain(4, Options{Discipline: LDLP, BatchLimit: 5})
	var plainOut []int
	plain.SetSink(func(m int) { plainOut = append(plainOut, m) })
	for i := 0; i < 50; i++ {
		plain.Inject(i)
	}
	plain.Run()

	sh := NewShardedStack(Options{Discipline: LDLP, BatchLimit: 5},
		shardHash, buildShardChain(4))
	defer sh.Close()
	var shOut []int
	sh.SetSink(func(m shardMsg) { shOut = append(shOut, m.seq) })
	for i := 0; i < 50; i++ {
		sh.Inject(shardMsg{flow: 7, seq: i})
	}
	sh.Drain()

	if fmt.Sprint(plainOut) != fmt.Sprint(shOut) {
		t.Errorf("single-shard deliveries %v != plain stack %v", shOut, plainOut)
	}
	if p, q := plain.Stats().Processed, sh.Stats().Processed; p != q {
		t.Errorf("Processed: plain %d, sharded %d", p, q)
	}
}

func TestShardedConventionalDiscipline(t *testing.T) {
	// The sharded engine also runs call-through disciplines per shard
	// (used by the equivalence suite).
	s := NewShardedStack(Options{Discipline: Conventional, Shards: 3},
		shardHash, buildShardChain(2))
	defer s.Close()
	var n atomic.Int64
	s.SetSink(func(shardMsg) { n.Add(1) })
	for i := 0; i < 30; i++ {
		s.Inject(shardMsg{flow: i % 5, seq: i / 5})
	}
	s.Drain()
	if n.Load() != 30 {
		t.Errorf("delivered %d, want 30", n.Load())
	}
}

func TestShardedCloseProcessesQueuedInput(t *testing.T) {
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 2},
		shardHash, buildShardChain(2))
	var n atomic.Int64
	s.SetSink(func(shardMsg) { n.Add(1) })
	for i := 0; i < 100; i++ {
		s.Inject(shardMsg{flow: i, seq: 0})
	}
	s.Close()
	s.Close() // idempotent
	if n.Load() != 100 {
		t.Errorf("delivered %d before Close returned, want 100", n.Load())
	}
}

// TestShardedConcurrentInjectStress is the race-detector workout: many
// goroutines inject disjoint flows while the workers deliver, with Stats
// and Pending polled concurrently. Run with `make test-race`.
func TestShardedConcurrentInjectStress(t *testing.T) {
	const (
		injectors = 8
		perInj    = 2000
	)
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 4, BatchLimit: 14},
		shardHash, buildShardChain(5))
	defer s.Close()

	type key struct{ flow, seq int }
	seen := make(map[key]bool)
	lastSeq := make(map[int]int)
	ordered := true
	s.SetSink(func(m shardMsg) {
		seen[key{m.flow, m.seq}] = true
		if last, ok := lastSeq[m.flow]; ok && m.seq <= last {
			ordered = false
		}
		lastSeq[m.flow] = m.seq
	})

	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < injectors; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perInj; i++ {
				// Disjoint flows per injector keep per-flow order checkable.
				if s.Inject(shardMsg{flow: g*4 + i%4, seq: i}) == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	// Concurrent observers.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Stats()
				_ = s.Pending()
			}
		}
	}()
	wg.Wait()
	s.Drain()
	close(stop)
	obs.Wait()

	if got := int64(len(seen)); got != accepted.Load() {
		t.Errorf("unique deliveries %d != accepted %d", got, accepted.Load())
	}
	if !ordered {
		t.Error("per-flow delivery order violated")
	}
	if d := s.Stats().Delivered; d != accepted.Load() {
		t.Errorf("Stats.Delivered = %d, accepted = %d", d, accepted.Load())
	}
}

// TestShardedSinkNeverRunsConcurrently states the Sink contract directly
// instead of leaving it to the race detector: with every shard's worker
// delivering, the Sink must never observe another call in flight.
func TestShardedSinkNeverRunsConcurrently(t *testing.T) {
	const injectors, perInj = 8, 2000
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 4, BatchLimit: 14},
		shardHash, buildShardChain(2))
	defer s.Close()
	var inFlight, overlaps, calls atomic.Int64
	s.SetSink(func(shardMsg) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		runtime.Gosched() // widen the window another worker would need
		calls.Add(1)
		inFlight.Add(-1)
	})
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perInj; i++ {
				if s.Inject(shardMsg{flow: g*4 + i%4, seq: i}) == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	s.Drain()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("Sink entered concurrently %d times", n)
	}
	if calls.Load() != accepted.Load() {
		t.Errorf("Sink calls %d != accepted %d", calls.Load(), accepted.Load())
	}
}

// TestShardedGoroutineAccounting: a sharded stack is its workers and
// nothing else — Shards goroutines appear, and Close returns them all.
func TestShardedGoroutineAccounting(t *testing.T) {
	const shards = 3
	base := runtime.NumGoroutine()
	s := NewShardedStack(Options{Discipline: LDLP, Shards: shards}, shardHash, buildShardChain(2))
	if got := runtime.NumGoroutine() - base; got != shards {
		t.Errorf("NewShardedStack started %d goroutines, want %d", got, shards)
	}
	s.Inject(shardMsg{flow: 1})
	s.Drain()
	s.Close()
	// Close waits for the workers' deferred Done, which runs a moment
	// before each goroutine is gone from the count.
	for try := 0; runtime.NumGoroutine() != base; try++ {
		if try == 1000 {
			t.Fatalf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainWithin fails the test if s.Drain does not return within d.
func drainWithin(t *testing.T, s *ShardedStack[shardMsg], d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Drain still parked after %v (pending %d)", d, s.Pending())
	}
}

// TestShardedDrainWakeUpStress races drop-tail injectors — a one-slot
// queue, so most Injects are refused and roll pending back — against
// concurrent Drain callers. Whichever goroutine takes pending to zero
// must wake every sleeper: no Drain may be left parked.
func TestShardedDrainWakeUpStress(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 2, MaxQueued: 1},
		shardHash, buildShardChain(1))
	defer s.Close()
	s.SetSink(func(shardMsg) {})
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					s.Inject(shardMsg{flow: g, seq: i})
				}
			}()
			go func() {
				defer wg.Done()
				s.Drain()
			}()
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a Drain caller was never woken (pending %d)", r, s.Pending())
		}
	}
	drainWithin(t, s, 10*time.Second)
	if st := s.Stats(); st.Dropped == 0 || st.Delivered == 0 {
		t.Errorf("stress exercised only one path: %+v", st)
	}
}

// TestShardedDrainWokenByRefusedInject pins the rule the stress test can
// only sample: when a refused Inject's roll-back is the decrement that
// takes pending to zero, it must wake a parked Drain. The worker is held
// inside a handler so the interleaving is exact.
func TestShardedDrainWokenByRefusedInject(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 1, MaxQueued: 1}, shardHash,
		func(_ int, st *Stack[shardMsg]) {
			st.AddLayer("hold", func(m shardMsg, emit Emit[shardMsg]) {
				if m.seq == 0 {
					close(entered)
					<-gate
				}
				emit(nil, m)
			})
		})
	defer s.Close()
	s.Inject(shardMsg{seq: 0})
	<-entered // the worker holds message 0; the queue is empty again
	if err := s.Inject(shardMsg{seq: 1}); err != nil {
		t.Fatalf("second Inject: %v", err) // fills the one-slot queue
	}
	parked := make(chan struct{})
	go func() { s.Drain(); close(parked) }()
	time.Sleep(10 * time.Millisecond) // let Drain park on pending == 2
	// Retire both messages silently, as a worker's non-final decrement
	// does, so the next refused Inject is the one that reaches zero.
	s.pending.Add(-2)
	if err := s.Inject(shardMsg{seq: 2}); err != ErrStackFull {
		t.Fatalf("third Inject = %v, want ErrStackFull", err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Error("Drain not woken when a refused Inject took pending to zero")
	}
	s.pending.Add(2) // give the two real messages their counts back
	close(gate)
	drainWithin(t, s, 5*time.Second)
}

// TestShardedStatsIsSumOfShardStats: counters live per shard and are
// summed when read, so after Drain the aggregate is exactly the shards'
// sum (LargestBatch their maximum).
func TestShardedStatsIsSumOfShardStats(t *testing.T) {
	s := NewShardedStack(Options{Discipline: LDLP, Shards: 4, BatchLimit: 3},
		shardHash, buildShardChain(3))
	defer s.Close()
	for i := 0; i < 500; i++ {
		s.Inject(shardMsg{flow: i % 7, seq: i / 7})
	}
	s.Drain()
	var sum Stats
	for i := range s.shards {
		st := s.ShardStats(i)
		sum.QueueOps += st.QueueOps
		sum.Processed += st.Processed
		sum.Delivered += st.Delivered
		sum.Rounds += st.Rounds
		sum.LargestBatch = max(sum.LargestBatch, st.LargestBatch)
	}
	sum.Dropped = s.Stats().Dropped
	if got := s.Stats(); got != sum || got.Delivered == 0 {
		t.Errorf("Stats() = %+v, sum of ShardStats = %+v", got, sum)
	}
}

func TestBuildShardedStackFromGraph(t *testing.T) {
	spec := `
		device > ether > ip
		ip > tcp, udp
		tcp > app
		udp > app
	`
	var mu sync.Mutex
	perShardDelivered := make(map[int]int)
	var maps []map[string]*Layer[shardMsg]
	s, byShard, err := BuildShardedStack[shardMsg](Options{Discipline: LDLP, Shards: 2}, spec,
		shardHash, func(shard int) map[string]Handler[shardMsg] {
			up := func(name string, final bool) Handler[shardMsg] {
				return func(m shardMsg, emit Emit[shardMsg]) {
					if final {
						mu.Lock()
						perShardDelivered[shard]++
						mu.Unlock()
						emit(nil, m)
						return
					}
					emit(maps[shard][name], m)
				}
			}
			return map[string]Handler[shardMsg]{
				"device": up("ether", false),
				"ether":  up("ip", false),
				"ip": func(m shardMsg, emit Emit[shardMsg]) {
					if m.flow%2 == 0 {
						emit(maps[shard]["tcp"], m)
					} else {
						emit(maps[shard]["udp"], m)
					}
				},
				"tcp": up("app", false),
				"udp": up("app", false),
				"app": up("", true),
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	maps = byShard
	defer s.Close()
	for i := 0; i < 40; i++ {
		s.Inject(shardMsg{flow: i % 4, seq: i / 4})
	}
	s.Drain()
	if d := s.Stats().Delivered; d != 40 {
		t.Fatalf("Delivered = %d, want 40", d)
	}
	mu.Lock()
	total := perShardDelivered[0] + perShardDelivered[1]
	mu.Unlock()
	if total != 40 {
		t.Errorf("per-shard handler deliveries = %d, want 40", total)
	}
	if len(byShard) != 2 || byShard[0]["device"] == nil || byShard[1]["app"] == nil {
		t.Error("BuildShardedStack layer maps incomplete")
	}
}

func TestBuildShardedStackRejectsBadSpecs(t *testing.T) {
	_, _, err := BuildShardedStack[shardMsg](Options{Shards: 2}, "a > b > a", shardHash,
		func(int) map[string]Handler[shardMsg] { return nil })
	if err == nil {
		t.Error("cycle accepted")
	}
	_, _, err = BuildShardedStack[shardMsg](Options{Shards: 2}, "a > b", shardHash,
		func(int) map[string]Handler[shardMsg] {
			return map[string]Handler[shardMsg]{"a": func(m shardMsg, e Emit[shardMsg]) {}}
		})
	if err == nil {
		t.Error("missing handler accepted")
	}
}

func TestHashBytes(t *testing.T) {
	a := HashBytes(HashSeed(), []byte("flow-a"))
	b := HashBytes(HashSeed(), []byte("flow-b"))
	if a == b {
		t.Error("distinct keys hashed equal")
	}
	if a != HashBytes(HashSeed(), []byte("flow-a")) {
		t.Error("hash not deterministic")
	}
}
