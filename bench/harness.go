package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"ldlp/internal/core"
	"ldlp/internal/mbuf"
)

// cfgID names one of the two configurations of the system every
// workload runs under: the paper's result is the comparison between
// them, so every timing is reported once per configuration.
type cfgID int

const (
	conv cfgID = iota
	ldlp
	numCfgs
)

var (
	cfgNames    = [numCfgs]string{"conv", "ldlp"}
	disciplines = [numCfgs]core.Discipline{core.Conventional, core.LDLP}
)

// params is one run's command line.
type params struct {
	workload string
	seed     int64
	seconds  float64
	// quick shrinks every workload to a smoke size (2 windows of 20 ms,
	// 64-node fleet, 256 flows) with the correctness checks intact: the
	// shape the tier-1 tests run.
	quick bool
}

// windowDur is the length of one timed window: long enough to hold
// several collector cycles of the allocating workloads (one every ~12 ms
// on udp_rpc), short enough that some windows of a run fall wholly
// inside a quiet spell of the machine (see best). The count of windows
// is what follows the time budget, never their length.
func (p params) windowDur() time.Duration {
	if p.quick {
		return 20 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// warmRounds is the warm-up a round-based workload runs per
// configuration in each set-up. It is a fixed amount of work, not a
// duration, so setup_s stays a measurement of the code and not of a
// timer.
func (p params) warmRounds() int {
	if p.quick {
		return 10
	}
	return 1000
}

// windows is the number of timed windows per configuration that fit
// budget seconds of measuring, interleaved over both configurations.
func (p params) windows(budget float64) int {
	if p.quick {
		return 2
	}
	return max(2, int(budget/(float64(numCfgs)*p.windowDur().Seconds())))
}

// workload is one set of inputs and the rig that runs them. All state
// is per instance; a workload is set up, measured and torn down by one
// goroutine.
type workload interface {
	// setup builds the rigs of both configurations from nothing and warms
	// them (pools, flow caches, lazily grown slices). It is what setup_s
	// times.
	setup() error
	// window runs one timed window of about dur under configuration c,
	// feeding each round's wall time per message into tail and, on a
	// traced run, spans into rec (nil when untraced).
	window(c cfgID, dur time.Duration, tail *tailHist, rec *spanRec) windowResult
	// verify checks every output and counter the run should have left
	// behind, at quiescence, and reports operations attempted, operations
	// failed, and why.
	verify() (attempted, failed int64, why []string)
	// counts reports the layer counters the workload leaves behind
	// (per-layer metrics that are counts, not timings).
	counts(out map[string]float64)
	// teardown releases the rigs.
	teardown()
	// dialsPerSetup is how many TCP connections one setup dials (see
	// maxDials).
	dialsPerSetup() int
}

// windowResult is one timed window: wall time, messages completed, and
// what the Go heap was asked for meanwhile.
type windowResult struct {
	ns, msgs       int64
	mallocs, bytes uint64
}

// timed brackets body with the clock and the allocation counters.
// ReadMemStats stops the world, so both reads sit outside the clock.
func timed(body func() int64) windowResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	msgs := body()
	ns := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return windowResult{ns: int64(ns), msgs: msgs, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// roundLoop runs round until dur has passed, timing each round with one
// clock read shared with its neighbour, and returns messages completed.
func roundLoop(dur time.Duration, tail *tailHist, rec *spanRec, round func(rec *spanRec) int64) int64 {
	var msgs int64
	start := time.Now()
	prev := start
	for {
		rec.begin(spRound)
		m := round(rec)
		rec.end()
		now := time.Now()
		tail.observe(float64(now.Sub(prev)) / float64(m))
		prev = now
		msgs += m
		if now.Sub(start) >= dur {
			return msgs
		}
	}
}

// sample is the measured half of a run: for each configuration, every
// window's ns/msg and p99 of per-round ns/msg, and the allocation totals.
type sample struct {
	perWindow      [numCfgs][]float64
	p99s           [numCfgs][]float64
	rounds         [numCfgs]int64
	msgs           [numCfgs]int64
	mallocs, bytes uint64
}

// measure takes windows round-robin conv, ldlp, conv, ldlp, ... so that
// drift on a shared machine falls on both alike. A workload whose
// window is a whole run (fleet_gossip) ignores the window length, so the
// loop also stops once budget seconds have passed.
func measure(w workload, p params, budget float64, recs *[numCfgs]*spanRec) *sample {
	s := &sample{}
	n := p.windows(budget)
	for c := range s.perWindow {
		s.perWindow[c] = make([]float64, 0, n)
		s.p99s[c] = make([]float64, 0, n)
	}
	tail := new(tailHist)
	start := time.Now()
	for i := 0; i < n; i++ {
		for c := conv; c < numCfgs; c++ {
			var rec *spanRec // nil: untraced
			if recs != nil {
				rec = recs[c]
			}
			*tail = tailHist{}
			r := w.window(c, p.windowDur(), tail, rec)
			s.perWindow[c] = append(s.perWindow[c], float64(r.ns)/float64(r.msgs))
			s.p99s[c] = append(s.p99s[c], tail.quantile(0.99))
			s.rounds[c] += tail.n
			s.msgs[c] += r.msgs
			s.mallocs += r.mallocs
			s.bytes += r.bytes
		}
		if i >= 1 && time.Since(start).Seconds() >= budget {
			break
		}
	}
	return s
}

func (s *sample) totalMsgs() int64 { return s.msgs[conv] + s.msgs[ldlp] }

// pairedRatio is the median of ldlp/conv taken window by window: each
// pair ran back to back, so machine drift cancels inside a pair.
func (s *sample) pairedRatio() float64 {
	n := min(len(s.perWindow[conv]), len(s.perWindow[ldlp]))
	r := make([]float64, n)
	for i := range r {
		r[i] = s.perWindow[ldlp][i] / s.perWindow[conv][i]
	}
	return median(r)
}

// liveHeapMB forces a collection and reads what survived. Twice: a
// sync.Pool (the mbuf overflow tier) keeps its contents through one
// collection, and how full it was is an accident of timing.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupReps is how many times a run sets the workload up: a set-up is
// short and therefore easily disturbed, so setup_s is the best of
// several, like every other timing. A workload that dials TCP
// connections gets as many as its share of maxDials allows
// (tcp_rx_k14: three).
const setupReps = 9

// result is everything one run produced.
type result struct {
	p         params
	setups    []float64 // seconds, one per set-up
	s         *sample
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]float64 // by metric name: end-to-end, or per-layer on a traced run
	// exact holds readings that are a function of the inputs alone and
	// must repeat digit for digit under the same seed (-selfcheck).
	exact map[string]string
}

// pinProcs pins GOMAXPROCS to 1. One generator goroutine produces all
// load, and with one P the collector's work lands inside the window that
// caused it instead of on a second CPU that may or may not be free: on
// the 2-vCPU box this was written on, udp_rpc read 2.3 us/call with one
// P, steady, and 2.6 to 3.6 with two. Only the sharded-engine timings
// need more (see withProcs).
func pinProcs() { runtime.GOMAXPROCS(1) }

// withProcs runs body with GOMAXPROCS raised to min(nproc, n), for the
// timings whose subject is goroutines running side by side.
func withProcs(n int, body func()) {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), n))
	defer runtime.GOMAXPROCS(prev)
	body()
}

// begin pins the processor count and builds the run's workload.
func begin(p params) (*result, workload, error) {
	pinProcs()
	w, err := newWorkload(p)
	return &result{p: p, metrics: map[string]float64{}, exact: map[string]string{}}, w, err
}

// runEndToEnd is the untraced run: set up, measure, check, set up some
// more times, and report every end-to-end metric.
func runEndToEnd(p params) (*result, error) {
	res, w, err := begin(p)
	if err != nil {
		return nil, err
	}
	setup := func() error {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s: set-up: %w", p.workload, err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	res.s = measure(w, p, p.seconds, nil)
	heap := liveHeapMB() // before teardown: the rigs are still reachable
	res.attempted, res.failed, res.failures = w.verify()
	exactCounts(w, res)
	checkPoolBalanced(res)
	w.teardown()

	// The remaining set-ups come after the measurement: a process's first
	// half second (cold heap, a core not yet at speed) is the worst time
	// to take a 60 ms reading, and by now the machine has been busy for
	// --seconds.
	reps := setupReps
	if p.quick {
		reps = 3
	}
	if d := w.dialsPerSetup(); d > 0 {
		reps = min(reps, maxDials/d)
	}
	for len(res.setups) < reps {
		if err := setup(); err != nil {
			return nil, err
		}
		w.teardown()
	}

	s := res.s
	m := res.metrics
	m["setup_s"] = best(res.setups)
	for c := conv; c < numCfgs; c++ {
		m[cfgNames[c]+".ns_per_msg"] = best(s.perWindow[c])
		m[cfgNames[c]+".p99_ns"] = best(s.p99s[c])
	}
	// Plus one: the regression bound is a share of the parent's median,
	// and the tcp_rx workloads allocate nothing. The offset gives them a
	// base to be a share of (0.05 allocations, or bytes, per message).
	m["allocs_per_msg_plus1"] = 1 + float64(s.mallocs)/float64(s.totalMsgs())
	m["bytes_per_msg_plus1"] = 1 + float64(s.bytes)/float64(s.totalMsgs())
	m["live_heap_mb"] = heap
	return res, nil
}

// checkPoolBalanced fails the run if any mbuf is out while nothing is in
// flight: a leak anywhere in the program shows here.
func checkPoolBalanced(res *result) {
	if st := mbuf.PoolStats(); st.InUse != 0 {
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf("mbuf pool not balanced at quiescence: %d in use", st.InUse))
	}
}

// exactCounts copies the workload's deterministic counters into
// res.exact, formatted, for -selfcheck to compare as strings.
func exactCounts(w workload, res *result) {
	c := map[string]float64{}
	w.counts(c)
	for _, name := range exactNames[res.p.workload] {
		res.exact[name] = strconv.FormatFloat(c[name], 'g', -1, 64)
	}
}
