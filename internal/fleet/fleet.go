// Package fleet is a topology-aware, event-driven network simulator
// driving thousands of netstack hosts from one global schedule.
//
// Each node owns a full netstack.Net chassis (so its clock, telemetry
// and mbuf accounting stay per-node) whose egress is diverted to the
// fleet by Net.SetCarrier. The fleet routes every transmitted frame
// over the directed link (src, dst): serialization at the link
// bandwidth, propagation (fixed + jittered + distance-weighted), and an
// optional per-link faults.Injector, then schedules an arrival event.
// Arrivals queue in the destination's inbox until its simulated CPU is
// free; a process event then takes a service batch — one frame under
// the conventional discipline, up to BatchLimit under LDLP — charges
// the analytic service-time model derived from the paper's machine
// (sim.Config.AnalyticCosts), injects the batch through the host's real
// receive path, and polls the application. The LDLP-vs-conventional
// comparison at fleet scale therefore reflects both the stack's actual
// behaviour (checksums, sockets, drops) and the paper's cache economics.
//
// Everything is deterministic per Config.Seed: the event heap breaks
// time ties by schedule order, per-link jitter and fault streams are
// seeded from (seed, src, dst), and no code path consults wall time,
// global rand, or map iteration order. Two runs with the same config
// produce byte-identical event logs (Config.EventLog) — the replay test
// and ldlpvet's determinism analyzer both enforce this.
package fleet

import (
	"fmt"
	"io"
	"sort"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/sim"
	"ldlp/internal/telemetry"
)

// Config parameterizes a fleet.
type Config struct {
	// Topology is the peer graph (required).
	Topology *Topology
	// Discipline selects every host's receive schedule.
	Discipline core.Discipline
	// BatchLimit caps LDLP service batches; 0 means the paper's
	// cache-fit 14.
	BatchLimit int
	// Link is the model of every directed link.
	Link LinkConfig
	// Seed drives every random stream (link jitter, fault injectors).
	Seed int64
	// Horizon is the simulated-time cutoff in seconds; 0 means 120.
	Horizon float64
	// EventLog, when non-nil, receives one line per scheduler event —
	// the byte-comparable replay artifact.
	EventLog io.Writer
	// TelemetryRing sizes each host's flight-recorder rings. 0 means
	// 16: at fleet scale the merged histograms are the product; deep
	// per-host rings would be 1000x the memory for no figure.
	TelemetryRing int
}

func (c *Config) setDefaults() error {
	if c.Topology == nil || c.Topology.N() < 2 {
		return fmt.Errorf("fleet: need a topology with >= 2 nodes")
	}
	if c.Topology.N() >= 1<<24 {
		return fmt.Errorf("fleet: %d nodes overflow the 10.x.x.x address plan", c.Topology.N())
	}
	if c.BatchLimit == 0 {
		c.BatchLimit = 14
	}
	if c.Horizon == 0 {
		c.Horizon = 120
	}
	if c.TelemetryRing == 0 {
		c.TelemetryRing = 16
	}
	return nil
}

// inboxLimit bounds the frames queued awaiting a node's CPU
// (drop-tail).
const inboxLimit = 512

// pending is one frame waiting for a node's CPU.
type pending struct {
	m      *mbuf.Mbuf
	sentAt float64
	bytes  int
}

// Node is one simulated machine: a netstack host on its own chassis,
// plus the scheduler-side CPU state.
type Node struct {
	id    int32
	ip    layers.IPAddr
	host  *netstack.Host
	net   *netstack.Net
	fleet *Fleet

	inbox     []pending
	busyUntil float64
	scheduled bool // a process event is in the heap
}

// ID returns the node index in [0, N).
func (n *Node) ID() int { return int(n.id) }

// IP returns the node's address (see IPOf).
func (n *Node) IP() layers.IPAddr { return n.ip }

// Host returns the node's protocol stack.
func (n *Node) Host() *netstack.Host { return n.host }

// Fleet returns the owning scheduler.
func (n *Node) Fleet() *Fleet { return n.fleet }

// Peers returns the node's adjacency in the fleet topology.
func (n *Node) Peers() []int32 { return n.fleet.cfg.Topology.Peers(int(n.id)) }

// After schedules an application timer for this node, delay seconds
// from the node's current clock, delivered via App.Timer with arg.
func (n *Node) After(delay float64, arg int64) {
	at := n.net.Now() + delay
	if at < n.fleet.now {
		at = n.fleet.now
	}
	n.fleet.schedule(event{at: at, kind: evTimer, node: n.id, arg: arg})
}

// IPOf maps a node index to its address: the index's low 24 bits spread
// big-endian under 10/8, matching netstack's MACFor scheme so frames
// route back to indices without any table.
func IPOf(i int) layers.IPAddr {
	return layers.IPAddr{10, byte(i >> 16), byte(i >> 8), byte(i)}
}

// nodeIndex inverts IPOf through MACFor; -1 for addresses outside the
// fleet plan.
func nodeIndex(mac layers.MACAddr) int {
	if mac[0] != 0x02 || mac[1] != 0x00 || mac[2] != 10 {
		return -1
	}
	return int(mac[3])<<16 | int(mac[4])<<8 | int(mac[5])
}

// App is the workload a fleet drives. All four hooks run on the
// scheduler goroutine, in deterministic order.
type App interface {
	// Setup runs once per node before the clock starts (open sockets,
	// init per-node state).
	Setup(n *Node)
	// Start runs once per node at time zero; initial transmissions made
	// here enter the schedule at t=0.
	Start(n *Node)
	// Poll runs after a node's service batch completes; drain the
	// node's sockets here. now is the batch completion time.
	Poll(n *Node, now float64)
	// Timer delivers an After callback.
	Timer(n *Node, now float64, arg int64)
}

// Stats aggregates scheduler-level accounting. Frame conservation must
// balance: every frame handed to the carrier (plus injected duplicates)
// is eventually delivered into a host, dropped by a counted cause, or
// freed at shutdown — CheckInvariants verifies it.
type Stats struct {
	Events      int64        // scheduler events popped
	Carried     int64        // frames handed to the carrier by hosts
	Delivered   int64        // frames injected into a destination host
	Duplicated  int64        // extra copies materialized by link faults
	Unrouted    int64        // frames to addresses outside the fleet (freed)
	InboxDrops  int64        // frames dropped at a full inbox (freed)
	HeldFlushed int64        // reorder-held frames freed at shutdown
	Abandoned   int64        // in-flight frames freed at stop/horizon
	Batches     int64        // process events that served >= 1 frame
	MaxBatch    int          // largest single service batch
	Faults      faults.Stats // merged across every link injector
}

// CheckConservation returns an error unless every carried frame is
// accounted for.
func (s Stats) CheckConservation() error {
	in := s.Carried + s.Duplicated
	out := s.Delivered + s.Unrouted + s.Faults.Dropped + s.InboxDrops + s.HeldFlushed + s.Abandoned
	if in != out {
		return fmt.Errorf("fleet: frame conservation violated: %d in (carried %d + dup %d) != %d out (delivered %d + unrouted %d + faultdrop %d + inboxdrop %d + heldflush %d + abandoned %d)",
			in, s.Carried, s.Duplicated, out, s.Delivered, s.Unrouted, s.Faults.Dropped, s.InboxDrops, s.HeldFlushed, s.Abandoned)
	}
	if s.Duplicated != s.Faults.Duplicated {
		return fmt.Errorf("fleet: duplicate ledger mismatch: scheduler %d vs injectors %d", s.Duplicated, s.Faults.Duplicated)
	}
	return nil
}

// Fleet is the scheduler: the global event heap, the per-link runtime
// states, and the nodes.
type Fleet struct {
	cfg   Config
	app   App
	nodes []*Node
	// cost is the service-time model every process event charges: the
	// paper's §4 machine (100 MHz, 8 KB caches, 5 layers).
	cost sim.Costs

	heap eventHeap
	seq  uint64
	now  float64

	links    map[uint64]*linkState
	linkList []*linkState // creation order; maps are never ranged

	tel      *telemetry.Domain
	delivery *telemetry.Hist // send-to-completion latency, ns
	batchLen *telemetry.Hist // service batch sizes

	stats   Stats
	started bool
	stopped bool
	ran     bool
}

// New builds a fleet over cfg's topology and calls app.Setup on every
// node.
func New(cfg Config, app App) (*Fleet, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, app: app, links: make(map[uint64]*linkState),
		cost: sim.DefaultConfig(core.LDLP).AnalyticCosts()}
	f.tel = telemetry.NewDomain("fleet", func() int64 { return int64(f.now * 1e9) })
	f.delivery = f.tel.Hist("fleet-delivery-ns")
	f.batchLen = f.tel.Hist("fleet-batch")

	n := cfg.Topology.N()
	f.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := &Node{id: int32(i), ip: IPOf(i), fleet: f}
		nd.net = netstack.NewNet()
		opts := netstack.DefaultOptions(cfg.Discipline)
		opts.BatchLimit = cfg.BatchLimit
		opts.TelemetryRing = cfg.TelemetryRing
		nd.host = nd.net.AddHost(fmt.Sprintf("n%d", i), nd.ip, opts)
		src := int32(i)
		nd.net.SetCarrier(func(dst layers.MACAddr, m *mbuf.Mbuf) { f.transmit(src, dst, m) })
		f.nodes[i] = nd
	}
	for _, nd := range f.nodes {
		app.Setup(nd)
	}
	return f, nil
}

// Node returns node i.
func (f *Fleet) Node(i int) *Node { return f.nodes[i] }

// N returns the node count.
func (f *Fleet) N() int { return len(f.nodes) }

// Now returns the scheduler clock (seconds).
func (f *Fleet) Now() float64 { return f.now }

// Stop ends the run after the current event; remaining in-flight frames
// are freed and counted as Abandoned.
func (f *Fleet) Stop() { f.stopped = true }

// Stats returns the accounting so far, with fault counters merged
// across every link injector.
func (f *Fleet) Stats() Stats {
	s := f.stats
	for _, ls := range f.linkList {
		if ls.inj != nil {
			s.Faults.Merge(ls.inj.Stats())
		}
	}
	return s
}

func (f *Fleet) schedule(e event) {
	e.seq = f.seq
	f.seq++
	f.heap.push(e)
}

// transmit is the carrier: every frame any host sends lands here, at
// the sending node's clock.
func (f *Fleet) transmit(src int32, dst layers.MACAddr, m *mbuf.Mbuf) {
	f.stats.Carried++
	di := nodeIndex(dst)
	if di < 0 || di >= len(f.nodes) {
		f.stats.Unrouted++
		m.FreeChain()
		return
	}
	now := f.nodes[src].net.Now()
	ls := f.link(src, int32(di))
	f.launch(ls, m, now, false)
}

// launch runs one frame down a link: the injector's verdict and its
// buffer effects, then this medium's timing — held back by overtake
// count, or delayed, serialized and propagated into an arrival event.
// dup marks an injected duplicate, which gets no second verdict
// (mirroring netstack's impaired flag).
func (f *Fleet) launch(ls *linkState, m *mbuf.Mbuf, now float64, dup bool) {
	bytes := m.PktLen()
	if ls.inj != nil && !dup {
		act, cp := ls.inj.Apply(now, m, f.nodes[ls.dst].host.FrameFromBytes)
		if act.Drop {
			f.releaseReorders(ls, now) // a dropped frame still overtakes held ones
			return
		}
		if cp != nil {
			f.stats.Duplicated++
			f.launch(ls, cp, now, true)
		}
		if act.ReorderSpan > 0 {
			ls.held = append(ls.held, heldReorder{m: m, sentAt: now, span: act.ReorderSpan})
			return
		}
		now += act.Delay
	}
	arrive := f.propagate(ls, now, bytes)
	f.schedule(event{at: arrive, kind: evArrive, node: ls.dst, m: m, sentAt: now})
	f.releaseReorders(ls, arrive)
}

// propagate computes a frame's arrival time: FIFO serialization at the
// link bandwidth from the later of send time and the link's busy
// horizon, then fixed + jittered propagation.
func (f *Fleet) propagate(ls *linkState, now float64, bytes int) float64 {
	start := now
	if ls.busyUntil > start {
		start = ls.busyUntil
	}
	lc := &f.cfg.Link
	if lc.Bandwidth > 0 {
		start += float64(bytes*8) / lc.Bandwidth
		ls.busyUntil = start
	}
	lat := lc.Latency
	if lc.Jitter > 0 {
		lat += ls.jit.Float64() * lc.Jitter
	}
	return start + lat
}

// releaseReorders ages the link's holdback queue by one overtaking
// frame and schedules arrivals for entries whose span expired, just
// behind the frame that released them.
func (f *Fleet) releaseReorders(ls *linkState, behind float64) {
	if len(ls.held) == 0 {
		return
	}
	kept := ls.held[:0]
	for _, h := range ls.held {
		h.span--
		if h.span > 0 {
			kept = append(kept, h)
			continue
		}
		f.schedule(event{at: behind + 1e-9, kind: evArrive, node: ls.dst, m: h.m, sentAt: h.sentAt})
	}
	ls.held = kept
}

// Run executes the schedule until it drains, Stop is called, or the
// horizon passes, then frees anything still in flight. Returns the
// final merged stats.
func (f *Fleet) Run() Stats {
	if f.ran {
		return f.Stats()
	}
	f.ran = true
	if !f.started {
		f.started = true
		for _, nd := range f.nodes {
			f.app.Start(nd)
			nd.host.Pump()
		}
	}
	for !f.stopped && f.heap.len() > 0 {
		e := f.heap.pop()
		if e.at > f.cfg.Horizon {
			f.abandon(e)
			continue
		}
		f.now = e.at
		f.stats.Events++
		f.logEvent(e)
		switch e.kind {
		case evArrive:
			f.onArrive(e)
		case evProcess:
			f.onProcess(e)
		case evTimer:
			nd := f.nodes[e.node]
			nd.net.AdvanceTo(f.now)
			f.app.Timer(nd, f.now, e.arg)
			nd.host.Pump()
		}
	}
	f.drain()
	return f.Stats()
}

func (f *Fleet) onArrive(e event) {
	nd := f.nodes[e.node]
	if len(nd.inbox) >= inboxLimit {
		f.stats.InboxDrops++
		e.m.FreeChain()
		return
	}
	nd.inbox = append(nd.inbox, pending{m: e.m, sentAt: e.sentAt, bytes: e.m.PktLen()})
	if !nd.scheduled {
		at := f.now
		if nd.busyUntil > at {
			at = nd.busyUntil
		}
		nd.scheduled = true
		f.schedule(event{at: at, kind: evProcess, node: nd.id})
	}
}

func (f *Fleet) onProcess(e event) {
	nd := f.nodes[e.node]
	nd.scheduled = false
	if len(nd.inbox) == 0 {
		return
	}
	k := 1
	if f.cfg.Discipline == core.LDLP {
		k = len(nd.inbox)
		if k > f.cfg.BatchLimit {
			k = f.cfg.BatchLimit
		}
	}
	batch := nd.inbox[:k]
	bytes := 0
	for _, p := range batch {
		bytes += p.bytes
	}
	done := f.now + f.cost.Service(f.cfg.Discipline, k, bytes)
	nd.busyUntil = done
	// Advance the node clock to batch completion before injecting:
	// socket reads, telemetry stamps and any transmissions triggered by
	// this batch all happen at completion time.
	nd.net.AdvanceTo(done)
	for _, p := range batch {
		nd.host.InjectFrame(p.m)
		f.stats.Delivered++
	}
	nd.host.Pump()
	f.app.Poll(nd, done)
	nd.host.Pump() // flush frames Poll queued (LDLP transmit batching)
	for _, p := range batch {
		f.delivery.Observe(int64((done - p.sentAt) * 1e9))
	}
	f.batchLen.Observe(int64(k))
	f.stats.Batches++
	if k > f.stats.MaxBatch {
		f.stats.MaxBatch = k
	}
	nd.inbox = append(nd.inbox[:0], nd.inbox[k:]...)
	if len(nd.inbox) > 0 {
		nd.scheduled = true
		f.schedule(event{at: done, kind: evProcess, node: nd.id})
	}
}

// abandon frees a frame riding an event discarded at stop/horizon.
func (f *Fleet) abandon(e event) {
	if e.m != nil {
		f.stats.Abandoned++
		e.m.FreeChain()
	}
}

// drain frees everything still in flight after the loop exits, so the
// mbuf ledger balances and conservation holds.
func (f *Fleet) drain() {
	for f.heap.len() > 0 {
		f.abandon(f.heap.pop())
	}
	for _, ls := range f.linkList {
		for _, h := range ls.held {
			f.stats.HeldFlushed++
			h.m.FreeChain()
		}
		ls.held = nil
	}
	for _, nd := range f.nodes {
		for _, p := range nd.inbox {
			f.stats.Abandoned++
			p.m.FreeChain()
		}
		nd.inbox = nil
	}
}

// Close releases every node's chassis (shard workers, queued frames).
func (f *Fleet) Close() {
	f.drain()
	for _, nd := range f.nodes {
		nd.net.Close()
	}
}

// CheckInvariants verifies the run's ledgers: frame conservation across
// carrier/faults/delivery, the duplicate cross-check, and that no node
// still claims a scheduled CPU event after the heap drained.
func (f *Fleet) CheckInvariants() error {
	if err := f.Stats().CheckConservation(); err != nil {
		return err
	}
	if f.ran {
		for _, nd := range f.nodes {
			if len(nd.inbox) != 0 {
				return fmt.Errorf("fleet: node %d inbox not drained after run", nd.id)
			}
		}
	}
	if f.now > f.cfg.Horizon {
		return fmt.Errorf("fleet: clock %v ran past horizon %v", f.now, f.cfg.Horizon)
	}
	return nil
}

// logEvent writes one line per popped event — the replay artifact two
// same-seed runs must produce byte-identically.
func (f *Fleet) logEvent(e event) {
	if f.cfg.EventLog == nil {
		return
	}
	switch e.kind {
	case evArrive:
		fmt.Fprintf(f.cfg.EventLog, "%d %.9f arrive n%d len=%d sent=%.9f\n", e.seq, e.at, e.node, e.m.PktLen(), e.sentAt)
	case evProcess:
		fmt.Fprintf(f.cfg.EventLog, "%d %.9f process n%d q=%d\n", e.seq, e.at, e.node, len(f.nodes[e.node].inbox))
	case evTimer:
		fmt.Fprintf(f.cfg.EventLog, "%d %.9f timer n%d arg=%d\n", e.seq, e.at, e.node, e.arg)
	}
}

// MergedTelemetry merges every host's histograms and the fleet's own
// into one fleet-wide snapshot, sorted by name — the PR 5 histograms
// are exactly mergeable, so per-host and fleet-wide views agree on
// every count.
func (f *Fleet) MergedTelemetry() []telemetry.HistEntry {
	idx := make(map[string]int)
	var out []telemetry.HistEntry
	add := func(e telemetry.HistEntry) {
		if i, ok := idx[e.Name]; ok {
			out[i].Hist.Merge(e.Hist)
			return
		}
		idx[e.Name] = len(out)
		out = append(out, e)
	}
	for _, e := range f.tel.Snapshot().Hists {
		add(e)
	}
	for _, nd := range f.nodes {
		for _, e := range nd.host.Telemetry().Snapshot().Hists {
			add(e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
