// Package netstack is a runnable, in-memory TCP/IP-lite protocol stack
// built on the repository's substrates: mbuf chains for buffering,
// layers for wire formats, checksum for integrity, and the core LDLP
// engine for receive-path scheduling.
//
// It mirrors the structure whose working set §2 of the paper measures —
// device input, Ethernet demux, IP input, TCP with a fast path and a
// single-entry PCB cache, delayed ACKs every second data segment, and a
// socket layer — and its receive path can run under either the
// conventional or the LDLP discipline, so the examples can exercise the
// paper's scheduling idea over a real protocol stack.
//
// The network is explicitly pumped: hosts exchange frames through a Net,
// and time advances only via Tick. With Options.RxShards <= 1 everything
// is single-threaded and every test is deterministic. With RxShards > 1
// a host's receive path runs on the sharded LDLP engine: frames are
// partitioned across worker cores by their TCP/UDP 4-tuple (fragments by
// IP ID), so each connection's segments are processed by one shard in
// arrival order — per-connection TCP ordering is preserved — while
// distinct flows proceed in parallel, each shard keeping the paper's
// per-layer code locality.
//
// Transport state is sharded the same way (see transportShard): the flow
// hash that routes a frame to a worker also owns that flow's PCB,
// reassembly state, transmit queue and mbuf shard, so a segment touches
// its connection with no lock at all — there is no per-host transport
// mutex. The rare cross-shard operations go through explicit hand-off
// points instead: a reassembled datagram whose flow hashes elsewhere is
// re-injected through the engine, Accept moves only the socket handle
// (under the listener's lock, reading an atomic handshake flag), global
// counters use atomic adds, and the pump (timers, public socket calls,
// Net.Close) touches shard state only while the workers are quiescent.
// The shardaffinity analyzer in ldlpvet enforces that discipline
// statically. Public socket calls must not overlap a running pump (drive
// the Net from one goroutine, as the examples do).
package netstack

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ldlp/internal/core"
	"ldlp/internal/dispatch"
	"ldlp/internal/faults"
	"ldlp/internal/flowtable"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// Packet is the unit flowing up the receive path: an mbuf chain plus the
// decoded headers so far (preallocated, gopacket-style).
type Packet struct {
	M   *mbuf.Mbuf
	Eth layers.Ethernet
	IP  layers.IPv4
	TCP layers.TCP
	UDP layers.UDP
	// reinjected marks a datagram that was reassembled on one shard and
	// re-injected to the shard owning its flow — the one packet source
	// that is not the wire. The FIFO-preservation suite keys on it:
	// cross-shard reinjection re-queues the datagram behind frames the
	// owning shard already accepted, so its ledger effects may interleave
	// differently than a single-threaded run's.
	reinjected bool
}

// Counters is the per-host accounting the tests and examples inspect.
// Fields are updated with atomic adds (shard workers may race on them);
// read them while the network is quiescent.
type Counters struct {
	FramesIn, FramesOut int64
	BadEther            int64 // wrong MAC or unknown ethertype
	BadIP               int64 // checksum/version/length failures
	BadTCP, BadUDP      int64 // checksum/port failures
	BadICMP             int64
	NoSocket            int64
	TCPFastPath         int64
	TCPSlowPath         int64
	AcksSent            int64
	DelayedAcks         int64
	Retransmits         int64
	DataSegsIn          int64
	EchoRequests        int64
	EchoReplies         int64
	Fragments           int64 // fragments received
	FragmentsSent       int64
	Reassembled         int64 // datagrams completed from fragments
	ReassemblyTimeouts  int64
	// TCPReinjects counts reassembled TCP datagrams that crossed shards
	// through the reinject hand-off. Such a datagram re-enters the owning
	// shard's queue behind segments already accepted there, so its ACK
	// ledger can interleave differently than single-threaded processing —
	// the equivalence harness asserts this stays 0 in runs it compares
	// ledgers for (the checked invariant that replaced PR 6's documented
	// caveat).
	TCPReinjects int64
	WindowProbes int64 // zero-window persist probes sent
	TimeoutDrops int64 // connections reaped after retransmission gave up

	// The drops with no field of their own above; Snapshot.Drops shows
	// them by reason.
	listenOverflows, sockOverflows, stackFull int64
}

// inc bumps a counter; atomic because sharded receive paths update
// counters from several worker goroutines.
func inc(c *int64) { atomic.AddInt64(c, 1) }

// drops is the one mapping from a drop reason to the counter that
// tallies it: it adds n and returns the new total, so n = 0 reads it.
func (c *Counters) drops(r telemetry.DropReason, n int64) int64 {
	switch r {
	case telemetry.DropBadEther:
		return atomic.AddInt64(&c.BadEther, n)
	case telemetry.DropBadIP:
		return atomic.AddInt64(&c.BadIP, n)
	case telemetry.DropBadTCP:
		return atomic.AddInt64(&c.BadTCP, n)
	case telemetry.DropBadUDP:
		return atomic.AddInt64(&c.BadUDP, n)
	case telemetry.DropBadICMP:
		return atomic.AddInt64(&c.BadICMP, n)
	case telemetry.DropNoSocket:
		return atomic.AddInt64(&c.NoSocket, n)
	case telemetry.DropListenOverflow:
		return atomic.AddInt64(&c.listenOverflows, n)
	case telemetry.DropSockBuffer:
		return atomic.AddInt64(&c.sockOverflows, n)
	case telemetry.DropStackFull:
		return atomic.AddInt64(&c.stackFull, n)
	case telemetry.DropTimeout:
		return atomic.AddInt64(&c.TimeoutDrops, n)
	case telemetry.DropReasmTimeout:
		return atomic.AddInt64(&c.ReassemblyTimeouts, n)
	}
	return 0
}

// reject is the only way a drop is accounted: it bumps the reason's
// counter and records one EvDrop on tr, the tracer of the goroutine
// running it, at layer. No drop counter moves and no EvDrop is recorded
// anywhere else, so the counters and the flight recorder agree by
// construction (Snapshot.Drops against Snapshot.DropEvents).
//
//ldlp:hotpath
func (h *Host) reject(tr *telemetry.Tracer, layer int, reason telemetry.DropReason) {
	h.Counters.drops(reason, 1)
	tr.Event(telemetry.EvDrop, layer, int64(reason))
}

// Options configures a host.
type Options struct {
	// Discipline selects the receive-path schedule (conventional
	// call-through or LDLP batching). Under LDLP the transmit side also
	// batches: frames generated while processing a receive batch are
	// flushed to the wire together, lestart-style (the transmit-side
	// LDLP the paper notes but does not evaluate).
	Discipline core.Discipline
	// BatchLimit caps LDLP batches at the device layer (0 = unlimited).
	BatchLimit int
	// InputLimit bounds frames buffered in the receive path (drop-tail).
	InputLimit int
	// MTU is the link MTU; IP datagrams beyond it are fragmented.
	// 0 means 1500.
	MTU int
	// RxShards > 1 runs the receive path on the sharded LDLP engine:
	// that many worker goroutines, frames partitioned by 4-tuple flow
	// hash. Requires Discipline == LDLP (the conventional call-through
	// schedule has no queues to shard). 0 or 1 keeps the deterministic
	// single-threaded path.
	RxShards int
	// TelemetryRing sizes each shard's flight-recorder ring (<= 0 uses
	// the telemetry default).
	TelemetryRing int
	// Dispatch selects the receive-side dispatch policy mapping frames
	// to shards (and, for dispatch.LoadAware, rebalancing hot flows at
	// quiescent points). Nil uses dispatch.Static — the classic flow-hash
	// modulo mapping. A policy instance must not be shared across hosts.
	Dispatch dispatch.Policy
}

// DefaultOptions mirror the paper's LDLP setup bounded by a 500-packet
// buffer.
func DefaultOptions(d core.Discipline) Options {
	return Options{Discipline: d, BatchLimit: 14, InputLimit: 500, MTU: 1500}
}

// ShardedOptions is DefaultOptions(LDLP) spread across shards worker
// cores.
func ShardedOptions(shards int) Options {
	o := DefaultOptions(core.LDLP)
	o.RxShards = shards
	return o
}

// mtu returns the effective MTU.
func (o Options) mtu() int {
	if o.MTU <= 0 {
		return 1500
	}
	return o.MTU
}

// frame is a wire frame in flight between hosts. It carries the sender's
// mbuf chain by reference — transmitting hands the chain's ownership to
// the wire and then to the receiving host's stack (§3.2's buffer hand-off
// discipline, extended across the link), so the TX path never copies
// frame bytes. Whoever drops a frame (no such host, loss injection,
// stack full) must free the chain.
type frame struct {
	dst layers.MACAddr
	m   *mbuf.Mbuf
	// impaired marks a frame that already received its one fault
	// verdict (held for delay/reorder, or an injected duplicate), so
	// re-dequeuing it delivers without a second draw.
	impaired bool
}

// heldFrame is an impaired frame parked until the clock reaches due.
type heldFrame struct {
	due float64
	f   frame
}

// Net is a broadcast segment connecting hosts, with an explicit clock.
type Net struct {
	hosts map[layers.MACAddr]*Host
	// order lists the hosts as attached. Every walk over all hosts uses
	// it, never the map: the order hosts flush in is the order of frames
	// on the wire, which decides each frame's fault verdict, so ranging
	// over the map made same-seed runs differ.
	order []*Host
	// wire[wireHead:] is the frames in flight, oldest first. The pump
	// pops by advancing wireHead and resets both when the wire drains
	// (which every pump ends with), so the backing array is reused
	// instead of being walked off the end of and reallocated.
	wire     []frame
	wireHead int
	now      float64
	inPump   bool
	// Loss, if set, is consulted per frame; returning true drops it
	// (failure injection for retransmission tests). Runs before any
	// Impair injector.
	Loss func(dst layers.IPAddr, data []byte) bool
	// impair holds the per-destination link injectors; held parks
	// delayed frames until a Tick advances the clock past their due
	// time.
	impair map[layers.IPAddr]*faults.Injector
	held   []heldFrame
	// carrier, when set, takes every transmitted frame instead of the
	// Net's own broadcast wire (see SetCarrier): the topology layer owns
	// routing, latency and per-link impairment from that point on.
	carrier func(dst layers.MACAddr, m *mbuf.Mbuf)
}

// NewNet creates an empty network segment.
func NewNet() *Net {
	return &Net{hosts: make(map[layers.MACAddr]*Host)}
}

// Impair installs a seeded fault injector on the link toward dst: every
// frame addressed to dst is subject to cfg's impairments. seed 0
// derives a stable per-destination default. Replaces any previous
// injector for dst (cfg.Enabled() == false removes it). Returns the
// installed injector so callers can read its per-impairment counters;
// install before pumping traffic, not mid-pump.
func (n *Net) Impair(dst layers.IPAddr, cfg faults.Config, seed int64) *faults.Injector {
	if !cfg.Enabled() {
		delete(n.impair, dst)
		return nil
	}
	if seed == 0 {
		seed = addrSeed(dst) | 1
	}
	if n.impair == nil {
		n.impair = make(map[layers.IPAddr]*faults.Injector)
	}
	inj := faults.New(cfg, seed)
	n.impair[dst] = inj
	return inj
}

// addrSeed is an address's contribution to its link's default seed: the
// four bytes, big-endian.
func addrSeed(ip layers.IPAddr) int64 {
	return int64(ip[0])<<24 | int64(ip[1])<<16 | int64(ip[2])<<8 | int64(ip[3])
}

// ImpairAll installs cfg on the ingress link of every host currently
// attached, each with a distinct seed derived from base, and returns
// the injectors by address.
func (n *Net) ImpairAll(cfg faults.Config, base int64) map[layers.IPAddr]*faults.Injector {
	out := make(map[layers.IPAddr]*faults.Injector)
	for _, h := range n.order {
		if inj := n.Impair(h.ip, cfg, base*1_000_003+addrSeed(h.ip)); inj != nil {
			out[h.ip] = inj
		}
	}
	return out
}

// HeldFrames reports frames parked by delay impairment, awaiting a
// Tick past their due time.
func (n *Net) HeldFrames() int { return len(n.held) }

// Now returns the simulated time in seconds.
func (n *Net) Now() float64 { return n.now }

// MACFor derives the static MAC address for an IP (this stack uses a
// fixed mapping instead of ARP; §2's trace shows arpresolve as pure
// overhead on the fast path, which a static mapping makes explicit).
func MACFor(ip layers.IPAddr) layers.MACAddr {
	return layers.MACAddr{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
}

// AddHost creates a host attached to this network.
func (n *Net) AddHost(name string, ip layers.IPAddr, opts Options) *Host {
	if _, dup := n.hosts[MACFor(ip)]; dup {
		panic(fmt.Sprintf("netstack: duplicate IP %v", ip))
	}
	h := newHost(n, name, ip, opts)
	n.hosts[h.mac] = h
	n.order = append(n.order, h)
	return h
}

// Close stops every host's shard workers (no-op for single-threaded
// hosts) and frees frames still parked on the wire or in delay holds,
// so tests that end mid-impairment do not read as mbuf leaks. Call
// when done with a network that uses RxShards or delay faults.
//
//ldlp:quiescent
func (n *Net) Close() {
	for _, f := range n.wire[n.wireHead:] {
		f.m.FreeChain()
	}
	n.wire, n.wireHead = nil, 0
	for _, hf := range n.held {
		hf.f.m.FreeChain()
	}
	n.held = nil
	for _, h := range n.order {
		// LDLP batches outbound frames in the per-shard txqs until the
		// next pump; frames queued by a Send with no pump afterwards must
		// be freed here or they read as leaked mbufs.
		for _, ts := range h.tshards {
			for _, f := range ts.txq {
				f.m.FreeChain()
			}
			ts.txq = nil
		}
		h.Close()
	}
}

// send queues a frame for delivery (or hands it to the carrier when the
// Net is chassis for an external topology).
func (n *Net) send(f frame) {
	if n.carrier != nil {
		n.carrier(f.dst, f.m)
		return
	}
	//lint:ignore hotpathalloc wire queue drained and reset every pump, backing array included; it grows only to the deepest backlog seen
	n.wire = append(n.wire, f)
}

// SetCarrier diverts every frame this Net's hosts transmit to carry,
// bypassing the built-in broadcast wire. With a carrier installed the
// Net is reduced to a chassis — a clock plus attached hosts — and an
// external topology layer (internal/fleet) owns frame routing, per-link
// latency/bandwidth and fault injection. The carrier takes ownership of
// each mbuf chain exactly as the wire would: deliver it to a host via
// InjectFrame, or free it.
//
// Drive carrier-backed hosts with InjectFrame/Pump/AdvanceTo, not
// Tick/RunUntilIdle (those pump the internal wire, which a carrier
// leaves permanently empty). Install before any traffic flows.
func (n *Net) SetCarrier(carry func(dst layers.MACAddr, m *mbuf.Mbuf)) {
	n.carrier = carry
}

// AdvanceTo moves simulated time forward to t (monotonic: earlier times
// are ignored, so interleaved per-node completion times from an external
// event scheduler cannot run the shared clock backwards). Unlike Tick it
// fires no timers and pumps nothing — the scheduler that owns the
// timeline decides when hosts run.
//
//ldlp:quiescent
func (n *Net) AdvanceTo(t float64) {
	if t > n.now {
		n.now = t
	}
}

// RunUntilIdle delivers frames and pumps hosts until the network is
// quiescent. Returns the number of frames delivered.
func (n *Net) RunUntilIdle() int {
	if n.inPump {
		return 0 // output during processing is collected by the outer pump
	}
	n.inPump = true
	defer func() { n.inPump = false }()
	delivered := 0
	for guard := 0; ; guard++ {
		if guard > 1_000_000 {
			panic("netstack: network failed to quiesce (routing loop?)")
		}
		if n.wireHead == len(n.wire) {
			// Let every host drain its LDLP queues; processing can emit
			// more frames.
			progress := false
			for _, h := range n.order {
				if h.process() > 0 {
					progress = true
				}
			}
			if !progress && n.wireHead == len(n.wire) {
				return delivered
			}
			continue
		}
		f := n.wire[n.wireHead]
		n.wire[n.wireHead] = frame{} // the chain is the receiver's now
		n.wireHead++
		if n.wireHead == len(n.wire) {
			n.wire, n.wireHead = n.wire[:0], 0
		}
		dst, ok := n.hosts[f.dst]
		if !ok {
			f.m.FreeChain() // frame to nowhere
			continue
		}
		if n.Loss != nil && n.Loss(dst.ip, f.m.Contiguous()) {
			f.m.FreeChain()
			continue
		}
		if !f.impaired {
			if inj := n.impair[dst.ip]; inj != nil && !n.impairFrame(inj, f, dst) {
				continue // dropped, held, or reordered — not delivered now
			}
		}
		dst.deliver(f.m)
		delivered++
	}
}

// impairFrame runs a frame bound for dst through the link's injector,
// which decides and does everything that happens to buffers; what is
// left here is this wire's timing. Returns true when the frame should
// be delivered immediately; false when it was dropped, parked for
// delay, or pushed back for reorder (the frame's chain has been freed
// or re-owned accordingly).
func (n *Net) impairFrame(inj *faults.Injector, f frame, dst *Host) bool {
	act, dup := inj.Apply(n.now, f.m, dst.txPool.FromBytes)
	var verdict telemetry.VerdictBits
	if act.Drop {
		verdict |= telemetry.VerdictDrop
	}
	if act.Duplicate {
		verdict |= telemetry.VerdictDuplicate
	}
	if act.CorruptBit >= 0 {
		verdict |= telemetry.VerdictCorrupt
	}
	if act.Delay > 0 {
		verdict |= telemetry.VerdictDelay
	}
	if act.ReorderSpan > 0 {
		verdict |= telemetry.VerdictReorder
	}
	if verdict != telemetry.VerdictDeliver {
		dst.telPump.Event(telemetry.EvFaultVerdict, 0, int64(verdict))
	}
	if act.Drop {
		return false
	}
	f.impaired = true
	if dup != nil {
		// Marked impaired so it gets no second verdict. It queues behind
		// the frames already on the wire, like a duplicate born of a real
		// retransmitting link.
		n.wire = append(n.wire, frame{dst: f.dst, m: dup, impaired: true})
	}
	if act.Delay > 0 {
		// Park until a Tick advances the clock past due. Explicitly
		// pumped time means sub-Tick delays still land on the next Tick,
		// never silently vanish.
		n.held = append(n.held, heldFrame{due: n.now + act.Delay, f: f})
		return false
	}
	if act.ReorderSpan > 0 && n.wireHead < len(n.wire) {
		// Reinsert behind up to ReorderSpan frames currently on the wire.
		at := n.wireHead + min(act.ReorderSpan, len(n.wire)-n.wireHead)
		n.wire = append(n.wire, frame{})
		copy(n.wire[at+1:], n.wire[at:])
		n.wire[at] = f
		return false
	}
	return true
}

// releaseHeld moves delay-parked frames whose due time has passed back
// onto the wire, earliest due first (jittered delays may release out of
// arrival order — that is the reordering the impairment models).
func (n *Net) releaseHeld() {
	if len(n.held) == 0 {
		return
	}
	sort.SliceStable(n.held, func(i, j int) bool { return n.held[i].due < n.held[j].due })
	k := 0
	for k < len(n.held) && n.held[k].due <= n.now {
		n.wire = append(n.wire, n.held[k].f)
		k++
	}
	n.held = n.held[k:]
}

// Tick advances simulated time (releasing delay-held frames, firing TCP
// timers) and pumps the network.
func (n *Net) Tick(dt float64) {
	n.now += dt
	n.releaseHeld()
	for _, h := range n.order {
		h.tick()
	}
	n.RunUntilIdle()
}

// Host is one endpoint: a NIC, the input protocol stack, transport state
// and sockets.
type Host struct {
	net  *Net
	name string
	mac  layers.MACAddr
	ip   layers.IPAddr
	opts Options

	// Exactly one of the two receive engines is set: stack (with rx
	// holding its layers) when RxShards <= 1, shards when RxShards > 1.
	stack   *core.Stack[*Packet]
	rx      *rxPath
	shards  *core.ShardedStack[*Packet]
	sharded bool

	// rxs holds every receive pipeline (one single-threaded, or one per
	// shard), for pump-side sweeps at quiescence (free-queue flushes).
	rxs []*rxPath

	// tshards is the per-connection-sharded transport state, index-aligned
	// with the engine's receive shards (exactly one entry when single-
	// threaded). Touch an entry only from its owning shard worker, or from
	// the pump while the workers are quiescent — the shardaffinity
	// analyzer enforces that every access site is one of the declared
	// hand-off points.
	tshards []*transportShard

	// txPool is the mbuf shard pump-side transmit allocations (dial SYNs,
	// UDP sends, pings, retransmissions on shard 0's connections) draw
	// from; each receive shard's own allocations come from its
	// transportShard pool.
	txPool *mbuf.PoolShard

	// pktPool recycles Packet wrappers so the steady-state receive path
	// performs no heap allocation per frame.
	pktPool sync.Pool

	Counters Counters

	// ipID feeds outbound datagram IDs; atomic because shard workers and
	// the pump allocate IDs concurrently. Uniqueness per (src, dst, proto)
	// is all reassembly needs — ordering across shards is irrelevant.
	ipID atomic.Uint32

	// ICMP state (icmp.go). icmpMu guards pingReplies: echo replies from
	// different sources arrive on different shard workers.
	icmpMu      sync.Mutex
	pingReplies []PingReply

	// TCP listeners (tcp.go). The map itself changes only at quiescence
	// (ListenTCP / Listener.Close are pump-side calls); each listener's
	// backlog has its own lock for the cross-shard accept hand-off.
	listeners map[uint16]*TCPListener
	// ephemeral is the local port DialTCP last handed out; the next one
	// follows it round 32768–65535. Per host, so a host's ports do not
	// depend on what else the process has dialled. Pump-side only.
	ephemeral uint16

	// UDP sockets (udp.go). The map itself changes only at quiescence;
	// each socket's queue has its own lock (flows from different remotes
	// hash to different shards but share one bound port).
	udpSocks map[uint16]*UDPSock

	// policy maps frames to shards (Options.Dispatch, defaulted to
	// dispatch.Static). Its Key/Shard run on the hot path; Rebalance
	// runs from dispatchTick with the workers quiescent.
	policy dispatch.Policy

	// Dispatch-rebalancing bookkeeping, pump-side only (dispatch.go):
	// prevShardLoad holds each shard's absolute Processed count at the
	// last dispatchTick, so the policy sees per-window deltas; dispatch
	// holds the rebalancing counters of Snapshot.Dispatch.
	prevShardLoad []int64
	dispatch      DispatchStats

	// tel is the host's telemetry domain: one flight-recorder tracer
	// per receive shard (wired into the LDLP engine), one pump-side
	// tracer (telPump) for events that happen outside the receive
	// schedule — transmit flushes, retransmissions, fault verdicts,
	// intake overflow — and the shared histograms. Always non-nil.
	tel     *telemetry.Domain
	telPump *telemetry.Tracer
	txBatch *telemetry.Hist
}

// transportShard owns the transport state of every flow whose 4-tuple
// hash maps to one receive shard: the engine routes a connection's
// segments to exactly this shard's worker, so the worker reads and
// writes these fields with no lock at all. The pump goroutine may touch
// them too, but only while the workers are quiescent (after Drain):
// timers, public socket calls and flushes are declared hand-off points.
// A single-threaded host has exactly one transportShard and the pump is
// the only toucher.
type transportShard struct {
	h   *Host
	idx int

	// pool is this shard's private mbuf allocation domain: segments,
	// fragments and reassembled datagrams built on behalf of this shard's
	// flows come from here, so shard workers never meet on an allocator
	// lock. Aliases Host.txPool on shard 0 / single-threaded hosts.
	pool *mbuf.PoolShard

	// txq is transmit-side LDLP batching: frames generated while
	// processing on this shard, flushed to the wire by the pump after
	// Drain (shard-index order keeps the flush deterministic).
	txq []frame

	// TCP state (tcp.go): this shard's connections in an open-addressed
	// flow table, fronted by last, the paper's single-entry PCB cache
	// (4.4BSD's tcp_last_inpcb): the PCB the previous segment on this
	// shard resolved to. Per shard, so two flows on different shards
	// cannot evict each other. teardown and applyMigration clear it when
	// they remove the PCB it points at.
	pcbs *flowtable.Table[fourTuple, *tcpPCB]
	last *tcpPCB
	// issSeq counts this shard's connections for nextISS.
	issSeq uint32

	// Reassembly state (frag.go): fragments hash by IP ID, so every
	// fragment of one datagram lands here. fragq remembers insertion
	// order (oldest first) so the maxFragStates eviction is O(1) — all
	// partial datagrams share one timeout, so insertion order is
	// deadline order.
	frags *flowtable.Table[fragKey, *fragState]
	fragq fragQueue

	// tally points at this shard's slot in the host's padded tally
	// array. Plain fields, written only by the owning worker (or the
	// pump at quiescence) and read through Host.Snapshot —
	// the single-writer analogue of the atomic-counter discipline the
	// global Counters use.
	tally *shardTally
}

// shardTally is one transport shard's hot counters, padded to exactly
// one 64-byte cache line so adjacent shards' counter updates never
// false-share a line (each shard's worker bumps these on every frame;
// before the padding, shard i's tcpSegs and shard i+1's txFrames could
// land on one line and ping-pong between cores).
type shardTally struct {
	tcpSegs    int64
	udpDgrams  int64
	txFrames   int64
	reinjects  int64
	reasmLocal int64
	pcbMisses  int64 // lookupPCB calls the one-entry cache did not answer
	_          [16]byte
}

// ShardTransportStats is one transport shard's entry in Snapshot.Shards:
// what it carried and what it currently owns.
type ShardTransportStats struct {
	TCPSegs    int64 // TCP segments that reached this shard's TCP layer
	UDPDgrams  int64 // datagrams queued to sockets by this shard
	TxFrames   int64 // frames this shard queued for transmit
	Reinjects  int64 // reassembled datagrams re-routed to their flow's owner
	ReasmLocal int64 // reassembled datagrams whose flow this shard already owned
	PCBs       int   // connections currently owned
	Frags      int   // partial reassemblies currently held
}

// shardStats reports every transport shard's tallies, index-aligned
// with the receive shards. Pump-side: call while the network is
// quiescent.
//
//ldlp:quiescent
func (h *Host) shardStats() []ShardTransportStats {
	out := make([]ShardTransportStats, len(h.tshards))
	for i, ts := range h.tshards {
		out[i] = ShardTransportStats{
			TCPSegs: ts.tally.tcpSegs, UDPDgrams: ts.tally.udpDgrams,
			TxFrames: ts.tally.txFrames, Reinjects: ts.tally.reinjects,
			ReasmLocal: ts.tally.reasmLocal,
			PCBs:       ts.pcbs.Len(), Frags: ts.fragsLen(),
		}
	}
	return out
}

// FlowStats, Snapshot.Flows, aggregates the flow-table and PCB-cache
// effectiveness counters across every transport shard: the single-entry
// PCB cache's hit rate, and the flow table's probe-depth distribution
// (groups touched per lookup — p99 near 1 means lookups stay within one
// or two cache lines even at millions of flows).
type FlowStats struct {
	CacheHits     int64
	CacheMisses   int64
	CacheHitRate  float64
	PCBs          int
	Capacity      int
	ProbeDepthP50 float64
	ProbeDepthP99 float64
	ProbeDepthMax int64
}

// FlowStats reports the merged flow-table/PCB-cache statistics, the
// Flows part of Snapshot. Pump-side: call while the network is
// quiescent.
//
//ldlp:quiescent
func (h *Host) FlowStats() FlowStats {
	var out FlowStats
	var depth telemetry.HistSnapshot
	for _, ts := range h.tshards {
		out.CacheHits += ts.tally.tcpSegs - ts.tally.pcbMisses
		out.CacheMisses += ts.tally.pcbMisses
		st := ts.pcbs.Stats()
		out.PCBs += st.Live
		out.Capacity += st.Capacity
		depth.Merge(ts.pcbs.DepthHist())
	}
	if n := out.CacheHits + out.CacheMisses; n > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(n)
	}
	out.ProbeDepthP50 = depth.Quantile(0.50)
	out.ProbeDepthP99 = depth.Quantile(0.99)
	out.ProbeDepthMax = depth.Max
	return out
}

// pumpShard returns the transport shard pump-originated output (UDP
// sends, pings) goes through. Any shard would be correct — the pump only
// runs these between pumps, when every shard is quiescent — shard 0 is
// simply the conventional home for flow-less traffic.
func (h *Host) pumpShard() *transportShard { return h.tshards[0] }

// rxPath is one receive pipeline's layers: device -> ether -> ip ->
// {tcp,udp,icmp} -> socket. The single-threaded engine has one; the
// sharded engine builds one per shard (layer handlers must emit into
// their own shard's queues).
type rxPath struct {
	h *Host
	// ts is the transport shard this pipeline owns: the engine's flow
	// hash routed every packet seen here to this shard, so handlers
	// touch ts state lock-free.
	ts *transportShard
	// tel is this pipeline's shard tracer (drop events on the error
	// paths; the LDLP engine records batch and layer events through the
	// same ring). Nil-safe.
	tel *telemetry.Tracer
	// pool aliases ts.pool: the pipeline's private mbuf shard for
	// pull-ups and reassembled datagrams.
	pool *mbuf.PoolShard
	// fq batches frees of frames other shards' pools own (set only on
	// sharded hosts); flushed by the pump at quiescence. Single-threaded
	// hosts free directly — same goroutine, nothing to batch.
	fq     *mbuf.FreeQueue
	device *core.Layer[*Packet]
	ether  *core.Layer[*Packet]
	ipin   *core.Layer[*Packet]
	tcpin  *core.Layer[*Packet]
	udpin  *core.Layer[*Packet]
	icmpin *core.Layer[*Packet]
	sock   *core.Layer[*Packet]
}

// buildRxPath wires the receive-path layers into stack s, as two
// scheduling groups cut at the IP -> transport demux: header work that
// needs no per-flow state below it, PCB and socket state above. Each
// layer is a fraction of a kilobyte to a few kilobytes of code against a
// 32 KB L1i, so a queue between every pair cost more than the layers it
// deferred; the one cut that stays is where the DAG fans out, and it
// keeps the transport's lookup pass a tight loop over the batch
// (EXPERIMENTS.md, "Native layer groups", has the placement sweep).
func (h *Host) buildRxPath(s *core.Stack[*Packet]) *rxPath {
	rx := &rxPath{h: h}
	rx.device = s.AddLayer("device", rx.deviceInput)
	rx.ether = s.AddLayer("ether", rx.etherInput)
	rx.ipin = s.AddLayer("ip", rx.ipInput)
	rx.tcpin = s.AddLayer("tcp", rx.tcpInput)
	rx.udpin = s.AddLayer("udp", rx.udpInput)
	rx.icmpin = s.AddLayer("icmp", rx.icmpInput)
	rx.sock = s.AddLayer("socket", rx.sockInput)
	s.Link(rx.device, rx.ether)
	s.Link(rx.ether, rx.ipin)
	s.Link(rx.ipin, rx.tcpin)
	s.Link(rx.ipin, rx.udpin)
	s.Link(rx.ipin, rx.icmpin)
	s.Link(rx.tcpin, rx.sock)
	s.Link(rx.udpin, rx.sock)
	s.Link(rx.icmpin, rx.sock)
	s.Group(rx.device, rx.ether, rx.ipin)
	s.Group(rx.tcpin, rx.udpin, rx.icmpin, rx.sock)
	return rx
}

// newHost wires up the receive path and the transport shards.
func newHost(n *Net, name string, ip layers.IPAddr, opts Options) *Host {
	h := &Host{
		net: n, name: name, ip: ip, mac: MACFor(ip), opts: opts,
		listeners: make(map[uint16]*TCPListener),
		udpSocks:  make(map[uint16]*UDPSock),
		policy:    opts.Dispatch,
	}
	if h.policy == nil {
		h.policy = dispatch.Static{}
	}
	// The host's shards of the default mbuf pool (transmit, then one per
	// receive shard) and its flow-table seeds follow from its address:
	// the same on every run, and spread across the pool whether hosts
	// share a Net or each has its own, as fleet nodes do. Hundreds of
	// fleet hosts on one shard would overflow its freelist.
	poolBase := int(binary.BigEndian.Uint32(ip[:])) * (max(1, opts.RxShards) + 1)
	h.txPool = mbuf.DefaultShard(poolBase)
	h.tshards = make([]*transportShard, max(1, opts.RxShards))
	// One contiguous padded array: each shard's tally owns a full cache
	// line, and the slots are adjacent so the pump's stats sweep streams
	// through them.
	tallies := make([]shardTally, len(h.tshards))
	for i := range h.tshards {
		// Distinct hash seeds per shard keep the tables' probe sequences
		// independent; the seed feeds the key mix, not shard routing, so
		// it has no behavioural effect beyond slot placement.
		seed := uint64(poolBase)<<16 | uint64(i)
		h.tshards[i] = &transportShard{
			h: h, idx: i,
			pcbs:  flowtable.New[fourTuple, *tcpPCB](0, pcbHasher(seed)),
			tally: &tallies[i],
		}
	}
	h.tshards[0].pool = h.txPool

	// Telemetry domain: per-shard flight recorders plus the pump tracer.
	// The clock is the Net's simulated time in nanoseconds — the pump
	// advances n.now strictly before workers observe frames (the channel
	// send into a shard queue orders the write), so traces stay
	// deterministic per seed without a real clock anywhere.
	h.tel = telemetry.NewDomain(name, func() int64 { return int64(n.now * 1e9) })
	h.telPump = h.tel.Tracer("pump", opts.TelemetryRing)
	h.telPump.RegisterLayer(0, "pump")
	h.txBatch = h.tel.Hist("tx-batch")
	rxBatch := h.tel.Hist("ldlp-batch")

	engineOpts := core.Options{
		Discipline: opts.Discipline,
		BatchLimit: opts.BatchLimit,
		MaxQueued:  opts.InputLimit,
		Shards:     opts.RxShards,
	}
	if opts.RxShards > 1 {
		if opts.Discipline != core.LDLP {
			panic("netstack: RxShards > 1 requires the LDLP discipline")
		}
		h.sharded = true
		h.prevShardLoad = make([]int64, opts.RxShards)
		h.shards = core.NewShardedStack(engineOpts,
			func(p *Packet) uint64 { return h.policy.Key(p.M.Bytes()) },
			func(i int, st *core.Stack[*Packet]) {
				rx := h.buildRxPath(st)
				rx.ts = h.tshards[i]
				rx.pool = mbuf.DefaultShard(poolBase + 1 + i)
				rx.ts.pool = rx.pool
				rx.fq = new(mbuf.FreeQueue)
				rx.tel = h.tel.Tracer("shard"+fmt.Sprint(i), opts.TelemetryRing)
				st.SetTelemetry(rx.tel, rxBatch)
				h.rxs = append(h.rxs, rx)
			})
		h.shards.SetRoute(h.policy.Shard)
		h.shards.SetSink(h.putPacket)
		return h
	}
	h.stack = core.NewStack[*Packet](engineOpts)
	h.rx = h.buildRxPath(h.stack)
	h.rx.ts = h.tshards[0]
	h.rx.pool = h.txPool
	h.rx.tel = h.tel.Tracer("shard0", opts.TelemetryRing)
	h.stack.SetTelemetry(h.rx.tel, rxBatch)
	h.stack.SetSink(h.putPacket)
	h.rxs = append(h.rxs, h.rx)
	return h
}

// getPacket takes a recycled Packet wrapper (or makes the pool's first).
//
//ldlp:hotpath
func (h *Host) getPacket() *Packet {
	if p, ok := h.pktPool.Get().(*Packet); ok {
		return p
	}
	//lint:ignore hotpathalloc pool-miss cold path: the recycle pool satisfies steady-state traffic
	return &Packet{}
}

// putPacket recycles a Packet whose mbuf chain has already been freed or
// handed off. It doubles as the stack sink: a packet reaching the top of
// the receive path is done. On a sharded host the engine calls it from
// whichever shard worker is delivering, one call at a time; sync.Pool is
// safe from any of them.
//
//ldlp:hotpath
func (h *Host) putPacket(p *Packet) {
	*p = Packet{}
	h.pktPool.Put(p)
}

// nextIPID allocates an outbound datagram ID. Atomic: shard workers and
// the pump send concurrently, and reassembly only needs IDs unique per
// (src, dst, proto) — interleaving across shards is harmless.
func (h *Host) nextIPID() uint16 { return uint16(h.ipID.Add(1)) }

// tupleShard maps a connection 4-tuple to its owning transport shard by
// asking the dispatch policy the same question the engine asks per
// frame: dispatch.TupleKey produces exactly the flow key an inbound
// segment of that connection yields under dispatch.FrameKey (pinned by
// TestTupleShardMatchesFrameKey), and policy.Shard maps it through the
// same routing (including LoadAware's indirection table). So the shard
// DialTCP picks is exactly the shard the engine routes the connection's
// segments to — the control plane and data plane share one key builder
// and one router, and cannot desynchronize.
func (h *Host) tupleShard(t fourTuple) *transportShard {
	if len(h.tshards) == 1 {
		return h.tshards[0]
	}
	key := dispatch.TupleKey(t.raddr, h.ip, layers.ProtoTCP, t.rport, t.lport)
	return h.tshards[h.policy.Shard(key, len(h.tshards))]
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() layers.IPAddr { return h.ip }

// StackStats is the receive engine's counters (batch sizes, queue ops),
// aggregated across shards for a sharded host: Snapshot.Stack.
func (h *Host) StackStats() core.Stats {
	if h.sharded {
		return h.shards.Stats()
	}
	return h.stack.Stats()
}

// Telemetry is the host's live flight-recorder domain (per-shard event
// traces plus the batch-size histograms), for callers that reset a
// histogram; Snapshot.Telemetry is its snapshot.
func (h *Host) Telemetry() *telemetry.Domain { return h.tel }

// Close stops the shard workers and returns their batched frees to the
// pools. No-op for a single-threaded host; required to release
// goroutines for a sharded one.
func (h *Host) Close() {
	if h.sharded {
		h.shards.Close()
		for _, rx := range h.rxs {
			rx.fq.Flush()
		}
	}
}

// Now returns the network's simulated time, for protocol timers built on
// top of the stack.
func (h *Host) Now() float64 { return h.net.now }

// deliver receives a frame from the wire into the protocol stack, taking
// ownership of the mbuf chain. No copy: the sender's chain flows up this
// host's receive path and is freed (back to its owner's pool shard) when
// the path is done with it.
//
//ldlp:hotpath
func (h *Host) deliver(m *mbuf.Mbuf) {
	inc(&h.Counters.FramesIn)
	pkt := h.getPacket()
	pkt.M = m
	if h.sharded {
		if err := h.shards.Inject(pkt); err != nil {
			// A shard's input ring filled before its worker ran (the
			// in-memory wire delivers much faster than any NIC). The pump
			// backpressures — wait for the shards to drain, then retry —
			// rather than dropping, matching the single-threaded path
			// where processing keeps up with delivery by construction.
			h.shards.Drain()
			if err := h.shards.Inject(pkt); err != nil {
				h.reject(h.telPump, 0, telemetry.DropStackFull)
				pkt.M.FreeChain()
				h.putPacket(pkt)
			}
		}
		return
	}
	if err := h.stack.Inject(pkt); err != nil {
		h.reject(h.telPump, 0, telemetry.DropStackFull)
		pkt.M.FreeChain()
		h.putPacket(pkt)
	}
}

// InjectFrame delivers one frame from an external topology layer into
// this host's receive path, exactly as the built-in wire would: the host
// takes ownership of the mbuf chain. Under the conventional discipline
// the frame is processed inline; under LDLP it queues until the next
// Pump. Pump-side — the caller is the scheduler that owns the timeline.
//
//ldlp:quiescent
func (h *Host) InjectFrame(m *mbuf.Mbuf) { h.deliver(m) }

// Pump drains the receive engine and flushes the transmit queues — one
// scheduling quantum of this host, the per-host half of RunUntilIdle for
// topologies whose routing lives outside the Net (SetCarrier). Returns
// the number of packets processed plus frames flushed. Transmitted
// frames leave through the carrier during the call.
//
//ldlp:quiescent
func (h *Host) Pump() int { return h.process() }

// FrameFromBytes copies data into a fresh chain from the host's
// pump-side transmit pool. External topologies use it to materialize
// fault-injected duplicates of frames addressed to this host, the same
// pool choice impairFrame makes for the built-in wire. The caller owns
// the chain (typically handing it straight to InjectFrame).
//
//ldlp:quiescent
func (h *Host) FrameFromBytes(data []byte) *mbuf.Mbuf { return h.txPool.FromBytes(data) }

// process drains the receive engine (no-op under conventional, where
// Inject already ran the stack; a blocking Drain for the sharded engine),
// returns the shards' batched frees to their pools, and flushes the
// transmit queues.
func (h *Host) process() int {
	if h.sharded {
		before := h.shards.Stats().Processed
		h.shards.Drain()
		n := int(h.shards.Stats().Processed - before)
		for _, rx := range h.rxs {
			rx.fq.Flush()
		}
		return n + h.flushTx()
	}
	n := int(h.stack.Run())
	return n + h.flushTx()
}

// transmit hands a frame to the wire — immediately under conventional
// processing (single-threaded by construction), queued on this shard for
// a batched flush under LDLP.
func (ts *transportShard) transmit(f frame) {
	ts.tally.txFrames++
	if ts.h.opts.Discipline == core.LDLP {
		//lint:ignore hotpathalloc txq keeps its capacity across flushTx resets, so steady-state appends do not allocate
		ts.txq = append(ts.txq, f)
		return
	}
	ts.h.net.send(f)
}

// flushTx drains every shard's transmit queue in one batch, shard-index
// order (deterministic for a given shard count). Runs on the pump
// goroutine with the shard workers quiescent (after Drain).
//
//ldlp:quiescent
func (h *Host) flushTx() int {
	n := 0
	for _, ts := range h.tshards {
		n += len(ts.txq)
	}
	if n == 0 {
		return 0
	}
	h.telPump.Event(telemetry.EvTxFlush, 0, int64(n))
	h.txBatch.Observe(int64(n))
	for _, ts := range h.tshards {
		for _, f := range ts.txq {
			h.net.send(f)
		}
		ts.txq = ts.txq[:0]
	}
	return n
}

// freeChain retires a chain this pipeline is done with. On a sharded
// host the chain's owner is usually another host's transmit shard, so
// the free goes through this pipeline's FreeQueue — batched, one owner
// lock per batch instead of per frame; single-threaded hosts free
// directly.
//
//ldlp:hotpath
func (rx *rxPath) freeChain(m *mbuf.Mbuf) {
	if rx.fq != nil {
		rx.fq.FreeChain(m)
		return
	}
	m.FreeChain()
}

// retire ends the life of a packet the path is done with but did not
// drop — a pure ACK, a consumed SYN: the chain returns to its owner's
// pool shard and the wrapper is recycled. Deliberately event-free: the
// TCP fast path retires every pure ACK through here, and per-frame
// telemetry there would tax exactly the path the paper measures.
//
//ldlp:hotpath
func (rx *rxPath) retire(p *Packet) {
	rx.freeChain(p.M)
	rx.h.putPacket(p)
}

// reject drops a packet at layer l for reason (Host.reject, on this
// shard's tracer) and retires it. Error paths are rare by construction,
// so the event cost never shows on the fast path.
//
//ldlp:hotpath
func (rx *rxPath) reject(p *Packet, l *core.Layer[*Packet], reason telemetry.DropReason) {
	rx.h.reject(rx.tel, l.Index(), reason)
	rx.retire(p)
}

// deviceInput models the driver layer: frame length sanity. Lock-free:
// touches only the packet and counters.
//
//ldlp:hotpath
func (rx *rxPath) deviceInput(p *Packet, emit core.Emit[*Packet]) {
	if p.M.PktLen() < layers.EthernetLen {
		rx.reject(p, rx.device, telemetry.DropBadEther)
		return
	}
	emit(rx.ether, p)
}

// etherInput decodes and strips the Ethernet header and demuxes on
// ethertype. Lock-free.
//
//ldlp:hotpath
func (rx *rxPath) etherInput(p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	buf := p.M.Bytes()
	n, err := p.Eth.Decode(buf)
	if err != nil {
		rx.reject(p, rx.ether, telemetry.DropBadEther)
		return
	}
	if p.Eth.Dst != h.mac && p.Eth.Dst != (layers.MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) {
		rx.reject(p, rx.ether, telemetry.DropBadEther)
		return
	}
	p.M.Adj(n)
	if p.Eth.EtherType != layers.EtherTypeIPv4 {
		rx.reject(p, rx.ether, telemetry.DropBadEther)
		return
	}
	emit(rx.ipin, p)
}

// ipInput validates the IP header, trims padding, strips the header and
// demuxes on protocol. Header validation runs lock-free; the fragment
// slow path takes the host lock for the shared reassembly state.
//
//ldlp:hotpath
func (rx *rxPath) ipInput(p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	var err error
	p.M, err = p.M.Pullup(min(p.M.PktLen(), layers.IPv4MinLen))
	if err != nil {
		rx.reject(p, rx.ipin, telemetry.DropBadIP)
		return
	}
	n, err := p.IP.Decode(p.M.Bytes())
	if err != nil {
		rx.reject(p, rx.ipin, telemetry.DropBadIP)
		return
	}
	if p.IP.Dst != h.ip {
		rx.reject(p, rx.ipin, telemetry.DropBadIP)
		return
	}
	if p.IP.TotalLen > p.M.PktLen() {
		rx.reject(p, rx.ipin, telemetry.DropBadIP)
		return
	}
	// Trim link-layer padding beyond TotalLen, then strip the header.
	p.M.Adj(-(p.M.PktLen() - p.IP.TotalLen))
	p.M.Adj(n)
	if p.IP.IsFragment() {
		// The slow path the paper's traced fast path never sees: hold the
		// fragment until the datagram completes, then continue the demux
		// with the reassembled payload. Fragments hash by IP ID, so the
		// whole datagram reassembles on this shard lock-free — but the
		// completed datagram's flow may hash elsewhere, in which case it
		// is re-injected through the engine to its owning shard.
		inc(&h.Counters.Fragments)
		whole := rx.reassemble(p)
		rx.freeChain(p.M)
		if whole == nil {
			rx.h.putPacket(p)
			return
		}
		if h.sharded && !rx.continueReassembled(p, whole) {
			return // handed off to the owning shard
		}
		if !h.sharded {
			// Single-threaded: the one shard owns every flow, so every
			// reassembled datagram continues inline.
			p.M = rx.pool.FromBytes(whole)
			rx.ts.tally.reasmLocal++
		}
		p.IP.TotalLen = layers.IPv4MinLen + len(whole)
		p.IP.Flags, p.IP.FragOff = 0, 0
	}
	switch p.IP.Protocol {
	case layers.ProtoTCP:
		emit(rx.tcpin, p)
	case layers.ProtoUDP:
		emit(rx.udpin, p)
	case layers.ProtoICMP:
		emit(rx.icmpin, p)
	default:
		rx.reject(p, rx.ipin, telemetry.DropBadIP)
	}
}

// sockInput is the top of the receive path: the transport layers have
// already appended payload to the owning socket; this layer models the
// wakeup. The chain is freed here; the wrapper leaves the stack top and
// is recycled by the sink.
//
//ldlp:hotpath
func (rx *rxPath) sockInput(p *Packet, emit core.Emit[*Packet]) {
	rx.freeChain(p.M)
	p.M = nil
	emit(nil, p)
}

// continueReassembled routes a datagram completed on this shard:
// reassembly partitions by IP ID, transport by the dispatch policy's
// flow key, and the two can disagree. The datagram is rebuilt as a
// plain (non-fragment) frame and keyed through the policy exactly like
// a frame off the wire. When the flow belongs to this very shard — the
// common case whenever src/dst/proto alone pin both keys, and always
// possible since the policy is deterministic — the rebuilt chain
// continues up the pipeline inline: it keeps its arrival position
// relative to later same-flow segments, so same-shard reassembly is
// order-exact (this replaces the old behaviour of re-queuing even local
// datagrams at the tail, which reordered them behind segments that
// arrived later). The caller then proceeds with the demux; the return
// is true.
//
// When the flow's owner is another shard, the frame is re-injected
// through the engine — an explicit cross-shard hand-off through the
// same message-passing the wire uses, rather than a lock — tagged
// reinjected and counted (Counters.TCPReinjects for TCP: such a
// datagram queues behind frames its owner already accepted, so ACK
// ledgers may interleave differently; the equivalence harness keeps
// that path out of ledger-compared runs). Runs on the worker, so on
// overflow it must drop (only the pump may block on Drain); the
// bounded-intake drop matches the engine's drop-tail contract. Returns
// false; p was recycled.
func (rx *rxPath) continueReassembled(p *Packet, whole []byte) bool {
	h := rx.h
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + len(whole),
		ID:       p.IP.ID,
		TTL:      64,
		Protocol: p.IP.Protocol,
		Src:      p.IP.Src,
		Dst:      p.IP.Dst,
	}
	m := rx.pool.FromBytes(whole)
	m, hdr := m.Prepend(layers.IPv4MinLen)
	ip.Encode(hdr)
	eth := layers.Ethernet{Dst: h.mac, Src: MACFor(p.IP.Src), EtherType: layers.EtherTypeIPv4}
	m, hdr = m.Prepend(layers.EthernetLen)
	eth.Encode(hdr)
	key := h.policy.Key(m.Bytes())
	if h.policy.Shard(key, len(h.tshards)) == rx.ts.idx {
		// Ours: strip the headers we just rebuilt and continue the demux
		// inline, in this packet's original arrival position.
		m.Adj(layers.EthernetLen + layers.IPv4MinLen)
		p.M = m
		rx.ts.tally.reasmLocal++
		return true
	}
	rx.ts.tally.reinjects++
	if p.IP.Protocol == layers.ProtoTCP {
		inc(&h.Counters.TCPReinjects)
	}
	np := h.getPacket()
	np.M = m
	np.reinjected = true
	if err := h.shards.Inject(np); err != nil {
		h.reject(rx.tel, rx.ipin.Index(), telemetry.DropStackFull)
		np.M.FreeChain()
		h.putPacket(np)
	}
	h.putPacket(p)
	return false
}

// ipOutput wraps a transport segment in IP + Ethernet and transmits on
// this shard's queue, fragmenting datagrams that exceed the link MTU.
// Runs on the owning shard's worker, or on the pump at quiescence (the
// timer and public-socket hand-off points).
func (ts *transportShard) ipOutput(m *mbuf.Mbuf, proto byte, dst layers.IPAddr) {
	h := ts.h
	mtu := h.opts.mtu()
	if layers.IPv4MinLen+m.PktLen() > mtu {
		ts.fragmentOutput(m, proto, dst, mtu)
		return
	}
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + m.PktLen(),
		ID:       h.nextIPID(),
		TTL:      64,
		Protocol: proto,
		Src:      h.ip,
		Dst:      dst,
	}
	m, hdr := m.Prepend(layers.IPv4MinLen)
	ip.Encode(hdr)
	eth := layers.Ethernet{Dst: MACFor(dst), Src: h.mac, EtherType: layers.EtherTypeIPv4}
	m, hdr = m.Prepend(layers.EthernetLen)
	eth.Encode(hdr)
	inc(&h.Counters.FramesOut)
	// Hand the chain itself to the wire — no copy. Ownership transfers to
	// the receiving host's stack, which frees it when done.
	ts.transmit(frame{dst: eth.Dst, m: m})
}

// tick fires host timers (TCP retransmit / delayed ACK, reassembly
// expiry) and gives the dispatch policy its rebalance point. Runs on
// the pump goroutine with shard workers quiescent.
func (h *Host) tick() {
	h.tcpTick()
	h.fragTick()
	h.dispatchTick()
}
