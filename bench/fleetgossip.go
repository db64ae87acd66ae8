package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"ldlp/internal/fleet"
	"ldlp/internal/fleet/gossip"
	"ldlp/internal/mbuf"
)

// fleetGossip is the fleet_gossip workload: threshold gossip to step 5
// on a 512-node small-world fleet over lossy LAN links. One window is
// one whole Fleet.Run on a freshly built fleet; a message is one frame
// delivered into a destination host.
type fleetGossip struct {
	p     params
	nodes int
	topo  *fleet.Topology

	runs      [numCfgs]int64
	reached   [numCfgs]int64 // nodes that hit the target, summed over runs
	history   [numCfgs][]byte
	trouble   []string
	last      [numCfgs]fleetRun // the latest run of each configuration
	buildSecs []float64
	// alive is the latest run's fleet, kept until the next window (or
	// teardown) so live_heap_mb sees a fleet's working set, not an empty
	// heap.
	alive *fleet.Fleet
}

// fleetRun is what one run left behind, for the per-layer metrics.
type fleetRun struct {
	stats        fleet.Stats
	wallNs       int64
	mallocs      uint64
	bytes        uint64
	queueOps     int64
	largestBatch int
	simP99       float64
	rxBatchMean  float64 // mean of the hosts' merged ldlp-batch histogram
	txBatchMean  float64
	roundsPerStp float64
}

const (
	gossipTargetStep = 5
	// framesPerRound is how many delivered frames make one timed round
	// inside a run (see roundApp).
	framesPerRound = 256
)

func newFleetGossip(p params) *fleetGossip {
	w := &fleetGossip{p: p, nodes: 512}
	if p.quick {
		w.nodes = 64
	}
	w.topo = fleet.SmallWorld(w.nodes, 8, 0.1, p.seed)
	return w
}

func (w *fleetGossip) config(c cfgID, topo *fleet.Topology) gossip.Config {
	return gossip.Config{
		Fleet: fleet.Config{
			Topology:   topo,
			Discipline: disciplines[c],
			Link:       fleet.FaultyLink(fleet.LANLink(), "bernoulli"),
			Seed:       w.p.seed,
		},
		TargetStep: gossipTargetStep,
	}
}

// roundApp wraps the gossip runner to cut a run into timed rounds from
// outside: after every node poll it reads how many frames that node's
// host has taken in, and closes a round each time framesPerRound more
// have been delivered fleet-wide. It only reads; the schedule, and so
// the step history, is the runner's own.
type roundApp struct {
	*gossip.Runner
	seen    []int64 // per node: Counters.FramesIn at its last poll
	inRound int64
	roundAt time.Time
	tail    *tailHist
	rec     *spanRec
}

func (a *roundApp) Poll(n *fleet.Node, now float64) {
	a.rec.begin(spGossipApp)
	a.Runner.Poll(n, now)
	a.rec.end()
	in := n.Host().Counters.FramesIn
	a.inRound += in - a.seen[n.ID()]
	a.seen[n.ID()] = in
	if a.inRound >= framesPerRound {
		t := time.Now()
		a.tail.observe(float64(t.Sub(a.roundAt)) / float64(a.inRound))
		a.roundAt, a.inRound = t, 0
	}
}

func (a *roundApp) Timer(n *fleet.Node, now float64, arg int64) {
	a.rec.begin(spGossipApp)
	a.Runner.Timer(n, now, arg)
	a.rec.end()
}

// build makes a fresh fleet and its runner.
func (w *fleetGossip) build(c cfgID, topo *fleet.Topology, tail *tailHist, rec *spanRec) (*fleet.Fleet, *roundApp, error) {
	cfg := w.config(c, topo)
	r, err := gossip.NewRunner(cfg, topo.N())
	if err != nil {
		return nil, nil, err
	}
	app := &roundApp{Runner: r, seen: make([]int64, topo.N()), tail: tail, rec: rec}
	f, err := fleet.New(cfg.Fleet, app)
	if err != nil {
		return nil, nil, err
	}
	return f, app, nil
}

// setup builds (and drops) a full-size fleet of each configuration,
// which is what every window pays before its clock starts, and runs a
// 64-node fleet of each to completion as warm-up.
func (w *fleetGossip) setup() error {
	mbuf.ResetPool() // see tcpRx.setup
	small := fleet.SmallWorld(64, 8, 0.1, w.p.seed)
	var scratch tailHist
	for c := conv; c < numCfgs; c++ {
		t0 := time.Now()
		f, _, err := w.build(c, w.topo, &scratch, nil)
		if err != nil {
			return err
		}
		w.buildSecs = append(w.buildSecs, time.Since(t0).Seconds())
		f.Close()
		f, app, err := w.build(c, small, &scratch, nil)
		if err != nil {
			return err
		}
		app.roundAt = time.Now()
		f.Run()
		f.Close()
		if app.Reached() != small.N() {
			return fmt.Errorf("%s warm-up fleet: %d of %d nodes reached step %d", cfgNames[c], app.Reached(), small.N(), gossipTargetStep)
		}
	}
	return nil
}

// window is one run to completion; dur does not apply.
func (w *fleetGossip) window(c cfgID, _ time.Duration, tail *tailHist, rec *spanRec) windowResult {
	// Each run gets a fresh fleet (a Fleet runs once) on fresh Nets, built
	// outside the clock, after the previous run's has been released.
	w.teardown()
	f, app, err := w.build(c, w.topo, tail, rec)
	if err != nil {
		w.trouble = append(w.trouble, err.Error())
		return windowResult{ns: 1, msgs: 1}
	}
	var st fleet.Stats
	res := timed(func() int64 {
		app.roundAt = time.Now()
		rec.begin(spRound)
		rec.begin(spFleetRun)
		st = f.Run()
		rec.end()
		rec.end()
		return st.Delivered
	})

	w.runs[c]++
	w.reached[c] += int64(app.Reached())
	if err := f.CheckInvariants(); err != nil {
		w.trouble = append(w.trouble, fmt.Sprintf("%s run %d: %v", cfgNames[c], w.runs[c], err))
	}
	if err := st.CheckConservation(); err != nil {
		w.trouble = append(w.trouble, fmt.Sprintf("%s run %d: %v", cfgNames[c], w.runs[c], err))
	}
	// Same seed, same inputs: every run of a configuration must write
	// the same step history, byte for byte.
	hist := app.HistoryBytes()
	if w.history[c] == nil {
		w.history[c] = hist
	} else if !bytes.Equal(hist, w.history[c]) {
		w.trouble = append(w.trouble, fmt.Sprintf("%s run %d: step history differs from run 1 under the same seed", cfgNames[c], w.runs[c]))
	}
	run := fleetRun{stats: st, wallNs: res.ns, mallocs: res.mallocs, bytes: res.bytes}
	for i := 0; i < f.N(); i++ {
		h := f.Node(i).Host()
		for _, t := range hostTrouble(cfgNames[c], h) {
			w.trouble = append(w.trouble, fmt.Sprintf("node %d, %s", i, t))
		}
		ss := h.StackStats()
		run.queueOps += ss.QueueOps
		run.largestBatch = max(run.largestBatch, ss.LargestBatch)
	}
	for _, e := range f.MergedTelemetry() {
		switch e.Name {
		case "fleet-delivery-ns":
			run.simP99 = e.Hist.Quantile(0.99)
		case "ldlp-batch":
			run.rxBatchMean = e.Hist.Mean()
		case "tx-batch":
			run.txBatchMean = e.Hist.Mean()
		}
	}
	if steps := int64(f.N()) * gossipTargetStep; steps > 0 {
		run.roundsPerStp = float64(app.Sent()) / float64(steps)
	}
	w.last[c] = run
	w.alive = f
	return res
}

func (w *fleetGossip) verify() (attempted, failed int64, why []string) {
	for c := conv; c < numCfgs; c++ {
		// The operation is a node reaching the target step; frames the
		// lossy links drop are the workload's input, not failures.
		attempted += w.runs[c] * int64(w.nodes)
		if short := w.runs[c]*int64(w.nodes) - w.reached[c]; short != 0 {
			failed += short
			why = append(why, fmt.Sprintf("%s: %d node-runs fell short of step %d", cfgNames[c], short, gossipTargetStep))
		}
	}
	failed += int64(len(w.trouble))
	why = append(why, w.trouble...)
	return attempted, failed, why
}

func (w *fleetGossip) counts(out map[string]float64) {
	l, cv := w.last[ldlp], w.last[conv]
	if l.stats.Delivered == 0 || cv.stats.Delivered == 0 {
		return
	}
	out["core.queue_ops_per_msg"] = float64(l.queueOps) / float64(l.stats.Delivered)
	out["core.mean_batch"] = l.rxBatchMean
	out["netstack.tx_batch_mean"] = l.txBatchMean
	out["netstack.queue_depth_max"] = float64(l.largestBatch)
	out["fleet.build_s"] = best(w.buildSecs)
	out["fleet.events_per_s.conv"] = float64(cv.stats.Events) / (float64(cv.wallNs) / 1e9)
	out["fleet.events_per_s.ldlp"] = float64(l.stats.Events) / (float64(l.wallNs) / 1e9)
	out["fleet.allocs_per_event"] = float64(l.mallocs) / float64(l.stats.Events)
	out["fleet.bytes_per_event"] = float64(l.bytes) / float64(l.stats.Events)
	out["fleet.mean_batch"] = float64(l.stats.Delivered) / float64(l.stats.Batches)
	out["fleet.max_batch"] = float64(l.stats.MaxBatch)
	out["fleet.inbox_drops"] = float64(l.stats.InboxDrops)
	out["fleet.fault_drops"] = float64(l.stats.Faults.Dropped)
	out["fleet.sim_delivery_p99_ns.conv"] = cv.simP99
	out["fleet.sim_delivery_p99_ns.ldlp"] = l.simP99
	if l.simP99 > 0 {
		out["fleet.sim_latency_ratio"] = cv.simP99 / l.simP99
	}
	out["gossip.rounds_per_step"] = l.roundsPerStp
	// The step histories, folded to 52 bits so a float64 carries them
	// exactly: -selfcheck compares them between same-seed runs.
	h := fnv.New64a()
	h.Write(w.history[conv])
	h.Write(w.history[ldlp])
	out["fleet.history_hash"] = float64(h.Sum64() >> 12)
}

func (w *fleetGossip) dialsPerSetup() int { return 0 }

func (w *fleetGossip) teardown() {
	if w.alive != nil {
		w.alive.Close()
		w.alive = nil
	}
}
