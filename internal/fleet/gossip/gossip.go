package gossip

import (
	"fmt"
	"math"

	"ldlp/internal/fleet"
	"ldlp/internal/layers"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

// Config parameterizes a gossip run over a fleet.
type Config struct {
	// Fleet configures the underlying simulator (topology, discipline,
	// links, seed, horizon).
	Fleet fleet.Config
	// TargetStep stops the run once every node's logical clock reaches
	// it. Required.
	TargetStep uint32
}

const (
	// thresholdFrac is the witness/advance threshold as a fraction of
	// each node's degree. A node's proposal is witnessed after
	// ceil(frac*deg) acks, and the node advances once it knows that many
	// peers' current-step proposals are witnessed.
	thresholdFrac = 2.0 / 3
	// heartbeat is the retransmission period in seconds (liveness under
	// loss).
	heartbeat = 0.05
	// vectorCap bounds the piggybacked vector entries per message; at
	// most MaxVec.
	vectorCap = 16
	// port is the UDP port the protocol binds.
	port = 9090
)

// StepRecord is one logical-clock advance in a node's history.
type StepRecord struct {
	Step uint32
	At   float64 // simulated seconds when the node reached Step
}

// nodeState is one node's TLC state machine.
type nodeState struct {
	sock    *netstack.UDPSock
	peers   []int32
	peerIdx map[int32]int // global id -> adjacency index
	thresh  int

	step      uint32 // current logical time step
	witnessed bool   // this step's proposal reached its ack threshold
	acks      []bool // per adjacency index: acked my current step
	ackCount  int
	// knownWit[id] is the highest step for which this node knows node
	// id's proposal was witnessed (0 = nothing known). Learned from Wit
	// messages and piggybacked vectors; transitive knowledge counts
	// toward the advance threshold exactly like a direct witness.
	knownWit []uint32
	vecOff   int // rotation offset for vector piggyback selection

	history []StepRecord
}

// Runner drives the protocol on every fleet node. It implements
// fleet.App; use Run or construct via NewRunner for custom fleets.
type Runner struct {
	cfg     Config
	n       int
	nodes   []*nodeState
	sent    int64
	reached int // nodes at TargetStep
	scratch []byte
	// rxVec and txVec hold the vector of the message being handled and of
	// the message being built. One of each serves every node: the fleet
	// runs one hook at a time, handle reads a message's vector before it
	// sends anything, and SendTo copies the encoded bytes.
	rxVec, txVec []VecEntry
}

// NewRunner validates cfg and builds the protocol state for n nodes.
func NewRunner(cfg Config, n int) (*Runner, error) {
	if cfg.TargetStep == 0 {
		return nil, fmt.Errorf("gossip: TargetStep must be >= 1")
	}
	return &Runner{
		cfg: cfg, n: n, nodes: make([]*nodeState, n),
		rxVec: make([]VecEntry, MaxVec),
		txVec: make([]VecEntry, 0, vectorCap),
	}, nil
}

// threshold returns ceil(frac*deg), at least 1, at most deg.
func (r *Runner) threshold(deg int) int {
	t := int(math.Ceil(thresholdFrac * float64(deg)))
	if t < 1 {
		t = 1
	}
	if t > deg {
		t = deg
	}
	return t
}

// Setup implements fleet.App.
func (r *Runner) Setup(n *fleet.Node) {
	sock, err := n.Host().UDPSocket(port)
	if err != nil {
		panic(err)
	}
	peers := n.Peers()
	st := &nodeState{
		sock:     sock,
		peers:    peers,
		peerIdx:  make(map[int32]int, len(peers)),
		thresh:   r.threshold(len(peers)),
		acks:     make([]bool, len(peers)),
		knownWit: make([]uint32, r.n),
		history:  make([]StepRecord, 0, 8),
	}
	for i, p := range peers {
		st.peerIdx[p] = i
	}
	r.nodes[n.ID()] = st
}

// Start implements fleet.App: every node proposes step 1 at t=0 and
// arms its heartbeat.
func (r *Runner) Start(n *fleet.Node) {
	st := r.nodes[n.ID()]
	st.step = 1
	r.broadcast(n, st, Prop, st.step)
	n.After(heartbeat, 0)
}

// Timer implements fleet.App: the heartbeat retransmits the node's
// current protocol position — its unwitnessed proposal, or its witness
// announcement — carrying a fresh vector either way.
func (r *Runner) Timer(n *fleet.Node, _ float64, _ int64) {
	st := r.nodes[n.ID()]
	if st.step > r.cfg.TargetStep {
		return // done; let the schedule drain
	}
	if st.witnessed {
		r.broadcast(n, st, Wit, st.step)
	} else {
		r.broadcast(n, st, Prop, st.step)
	}
	n.After(heartbeat, 0)
}

// Poll implements fleet.App: drain the socket and run the state machine
// on every datagram.
func (r *Runner) Poll(n *fleet.Node, now float64) {
	st := r.nodes[n.ID()]
	for {
		dg, ok := st.sock.Recv()
		if !ok {
			return
		}
		m, err := decodeInto(dg.Data, r.rxVec)
		if err != nil {
			continue // not ours / mangled beyond the UDP checksum's care
		}
		r.handle(n, st, m, now)
	}
}

func (r *Runner) handle(n *fleet.Node, st *nodeState, m Msg, now float64) {
	// Vector knowledge first: it may be fresher than the message itself.
	for _, e := range m.Vec {
		if int(e.ID) < len(st.knownWit) && e.WitStep > st.knownWit[e.ID] {
			st.knownWit[e.ID] = e.WitStep
		}
	}
	switch m.Type {
	case Prop:
		// Acknowledge the proposal at its own step (idempotent for the
		// proposer; re-acks from heartbeat duplicates are absorbed by
		// the acks bitmap on their side).
		r.send(n, st, Ack, m.Step, fleet.IPOf(int(m.Sender)))
	case Ack:
		if m.Step != st.step || st.witnessed {
			break // stale ack for an earlier step, or already witnessed
		}
		idx, ok := st.peerIdx[int32(m.Sender)]
		if !ok || st.acks[idx] {
			break
		}
		st.acks[idx] = true
		st.ackCount++
		if st.ackCount >= st.thresh {
			st.witnessed = true
			st.knownWit[n.ID()] = st.step
			r.broadcast(n, st, Wit, st.step)
		}
	case Wit:
		if int(m.Sender) < len(st.knownWit) && m.Step > st.knownWit[m.Sender] {
			st.knownWit[m.Sender] = m.Step
		}
		// Reply with an Ack even though there is nothing to witness: the
		// reply's piggybacked vector is what keeps knowledge flowing to a
		// lagging sender whose own peers have finished and gone quiet —
		// without it a witnessed straggler heartbeating Wit could starve.
		r.send(n, st, Ack, m.Step, fleet.IPOf(int(m.Sender)))
	}
	r.tryAdvance(n, st, now)
}

// tryAdvance moves the node's logical clock forward while the TLC
// condition holds: own proposal witnessed, and a threshold of peers'
// current-step proposals known witnessed.
func (r *Runner) tryAdvance(n *fleet.Node, st *nodeState, now float64) {
	for st.witnessed && st.step <= r.cfg.TargetStep {
		cnt := 0
		for _, p := range st.peers {
			if st.knownWit[p] >= st.step {
				cnt++
			}
		}
		if cnt < st.thresh {
			return
		}
		st.history = append(st.history, StepRecord{Step: st.step, At: now})
		if st.step == r.cfg.TargetStep {
			r.reached++
			st.step++ // past target: heartbeats stop proposing
			if r.reached == r.n {
				n.Fleet().Stop()
			}
			return
		}
		st.step++
		st.witnessed = false
		st.ackCount = 0
		for i := range st.acks {
			st.acks[i] = false
		}
		r.broadcast(n, st, Prop, st.step)
	}
}

// vector assembles the piggyback: self first, then a rotating window of
// peers with known witness state, capped at vectorCap. Rotation spreads
// transitive knowledge across successive messages deterministically.
// The result lives in r.txVec until the next call.
func (r *Runner) vector(id int, st *nodeState) []VecEntry {
	vec := r.txVec[:0]
	if st.knownWit[id] > 0 {
		vec = append(vec, VecEntry{ID: uint32(id), WitStep: st.knownWit[id]})
	}
	for i := 0; i < len(st.peers) && len(vec) < vectorCap; i++ {
		p := st.peers[(st.vecOff+i)%len(st.peers)]
		if w := st.knownWit[p]; w > 0 {
			vec = append(vec, VecEntry{ID: uint32(p), WitStep: w})
		}
	}
	st.vecOff++
	return vec
}

func (r *Runner) send(n *fleet.Node, st *nodeState, t MsgType, step uint32, dst layers.IPAddr) {
	m := Msg{Type: t, Sender: uint32(n.ID()), Step: step, Vec: r.vector(n.ID(), st)}
	r.scratch = m.AppendTo(r.scratch[:0])
	st.sock.SendTo(dst, port, r.scratch)
	r.sent++
}

func (r *Runner) broadcast(n *fleet.Node, st *nodeState, t MsgType, step uint32) {
	for _, p := range st.peers {
		r.send(n, st, t, step, fleet.IPOf(int(p)))
	}
}

// HistoryBytes serializes every node's step history into a canonical
// byte form — the replay artifact two same-seed runs must reproduce
// exactly.
func (r *Runner) HistoryBytes() []byte {
	var b []byte
	for id, st := range r.nodes {
		b = append(b, fmt.Sprintf("n%d:", id)...)
		for _, rec := range st.history {
			b = append(b, fmt.Sprintf(" %d@%.9f", rec.Step, rec.At)...)
		}
		b = append(b, '\n')
	}
	return b
}

// Sent returns the total gossip datagrams transmitted.
func (r *Runner) Sent() int64 { return r.sent }

// Reached returns how many nodes hit TargetStep.
func (r *Runner) Reached() int { return r.reached }

// Result summarizes one gossip run.
type Result struct {
	Nodes     int
	Target    uint32
	Completed bool    // every node reached TargetStep before the horizon
	SimTime   float64 // simulated seconds when the run ended
	MsgsSent  int64
	// RoundsPerStep is gossip datagrams per node per completed step —
	// the protocol-efficiency number FigureFleetGossip reports.
	RoundsPerStep float64
	// StepTime is the mean seconds between consecutive step advances,
	// across all nodes.
	StepTime float64
	// DeliveryP50/P99 are send-to-service-completion latency quantiles
	// in nanoseconds, from the fleet-wide merged delivery histogram.
	DeliveryP50, DeliveryP99 float64
	// History is the canonical serialized step history (see
	// Runner.HistoryBytes).
	History []byte
	// Telemetry is the fleet-wide merged histogram set.
	Telemetry []telemetry.HistEntry
	// Fleet is the scheduler's final accounting.
	Fleet fleet.Stats
}

// Run builds a fleet over cfg, drives the protocol to TargetStep (or
// the horizon) and returns the summary. The fleet is closed before
// returning.
func Run(cfg Config) (Result, error) {
	r, err := NewRunner(cfg, cfg.Fleet.Topology.N())
	if err != nil {
		return Result{}, err
	}
	f, err := fleet.New(cfg.Fleet, r)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	fs := f.Run()
	if err := f.CheckInvariants(); err != nil {
		return Result{}, err
	}

	res := Result{
		Nodes:     f.N(),
		Target:    cfg.TargetStep,
		Completed: r.reached == f.N(),
		SimTime:   f.Now(),
		MsgsSent:  r.sent,
		History:   r.HistoryBytes(),
		Telemetry: f.MergedTelemetry(),
		Fleet:     fs,
	}
	var steps, spans int64
	var spanSum float64
	for _, st := range r.nodes {
		steps += int64(len(st.history))
		prev := 0.0
		for _, rec := range st.history {
			spanSum += rec.At - prev
			prev = rec.At
			spans++
		}
	}
	if steps > 0 {
		res.RoundsPerStep = float64(r.sent) / float64(steps)
	}
	if spans > 0 {
		res.StepTime = spanSum / float64(spans)
	}
	for _, e := range res.Telemetry {
		if e.Name == "fleet-delivery-ns" {
			res.DeliveryP50 = e.Hist.Quantile(0.50)
			res.DeliveryP99 = e.Hist.Quantile(0.99)
		}
	}
	return res, nil
}
