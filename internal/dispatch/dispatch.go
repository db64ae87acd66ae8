// Package dispatch derives flow keys for the sharded LDLP engine and
// models receive-side dispatch policies.
//
// FrameKey and its decomposed twins TupleKey / FragmentKey / ProtoKey
// are the single source of truth for what "a flow" is. The netstack
// routes every frame to shard FrameKey(frame) % shards, and places a
// connection's PCB on TupleKey(tuple) % shards: its control plane (where
// DialTCP plants a PCB) and data plane (where the engine routes a frame)
// call the same code, so they cannot silently desynchronize.
//
// The Policy implementations are an experiment beside that mapping.
// Following the NIC receive-side-dispatching line of work (see
// PAPERS.md), they ask what a pluggable mapping would buy under skewed
// traffic, where one elephant flow pins a shard at 100% while the
// others idle:
//
//   - Static is the netstack's mapping: flow key modulo shard count.
//   - RPCDispatch spreads a UDP RPC service's independent requests
//     across shards by XID, so one busy client/server pair no longer
//     serializes on a single worker.
//   - LoadAware adds a small bucket indirection table and bounded
//     rebalancing: hot buckets detected from per-shard load are
//     re-homed to cold shards at quiescent points.
//
// The netstack takes no policy. They run in the modelled skew
// experiment (internal/sim, `ldlpreport dispatch_skew`) and in the
// benchmark's per-frame micro-rows.
//
// Concurrency contract: Key and Shard may run from any goroutine and
// must not allocate. Rebalance runs only at quiescent points — no
// concurrent Key/Shard — which is when LoadAware rewrites its
// indirection table.
package dispatch

import (
	"sync/atomic"

	"ldlp/internal/core"
	"ldlp/internal/layers"
)

// Migration is one bucket re-homing decision returned by Rebalance:
// every flow whose key satisfies Covers moves From -> To. The caller
// (the netstack pump) applies it at a quiescent point by moving the
// covered flows' transport state, which keeps the shardaffinity
// ownership story intact across the move.
type Migration struct {
	// Bucket and Mask define the covered key set: key & Mask == Bucket.
	Bucket uint64
	Mask   uint64
	// From and To are shard indices.
	From, To int
}

// Covers reports whether a flow key is re-homed by this migration.
func (m Migration) Covers(key uint64) bool { return key&m.Mask == m.Bucket }

// Policy maps frames to shards. Implementations must be used by one
// host only (LoadAware carries per-host routing state).
type Policy interface {
	// Name labels the policy in stats, figures and benchmarks.
	Name() string
	// Key maps a raw Ethernet frame to its flow key. Hot path: called
	// once per frame, must not allocate.
	Key(frame []byte) uint64
	// Shard maps a flow key to a shard index in [0, n). Hot path.
	Shard(key uint64, n int) int
	// Rebalance is the policy's chance to re-home flows, called at a
	// quiescent point. loads, when non-nil, holds each shard's frames
	// processed since the previous call (the engine's per-shard
	// telemetry counters). Policies with no dynamic state return nil.
	Rebalance(loads []int64) []Migration
}

// hashByte folds one byte into an FNV-1a accumulation (the byte-wise
// twin of core.HashBytes, so chunked and whole-buffer hashing agree).
//
//ldlp:hotpath
func hashByte(h uint64, b byte) uint64 {
	var one [1]byte
	one[0] = b
	return core.HashBytes(h, one[:])
}

// malformedKey is the canonical key for frames the IP layer will reject
// before reading a transport header: too short for an IP header, not
// IPv4, or an impossible IHL. Hashing such frames over their raw bytes
// (the old rxFlowHash behaviour) let two copies of the same malformed
// frame land on different shards when link padding differed; a constant
// key pins them all to one shard, and since every shard rejects them
// identically the choice is behaviour-free.
func malformedKey() uint64 { return core.HashSeed() }

// FrameKey maps a raw Ethernet frame to its flow key: IP src/dst +
// protocol, plus the TCP/UDP port pair for unfragmented transport
// segments (one connection, one shard, segment order preserved) or the
// IP ID for fragments (one datagram reassembles on one shard). Only
// bytes the decoder will actually inspect are hashed: malformed frames
// collapse to one canonical key, and the port bytes are used only when
// TotalLen proves they are datagram content rather than link padding.
//
//ldlp:hotpath
func FrameKey(data []byte) uint64 {
	if len(data) < layers.EthernetLen+layers.IPv4MinLen {
		return malformedKey()
	}
	ip := data[layers.EthernetLen:]
	if ip[0]>>4 != 4 {
		return malformedKey()
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < layers.IPv4MinLen {
		return malformedKey()
	}
	proto := ip[9]
	h := core.HashBytes(core.HashSeed(), ip[12:20]) // src + dst address
	h = hashByte(h, proto)
	ff := uint16(ip[6])<<8 | uint16(ip[7])
	if ff&0x3fff != 0 { // MF bit or nonzero fragment offset
		return core.HashBytes(h, ip[4:6]) // IP ID
	}
	totalLen := int(ip[2])<<8 | int(ip[3])
	if (proto == layers.ProtoTCP || proto == layers.ProtoUDP) &&
		len(ip) >= ihl+4 && totalLen >= ihl+4 {
		return core.HashBytes(h, ip[ihl:ihl+4]) // src + dst port
	}
	return h
}

// TupleKey is the control-plane twin of FrameKey for an unfragmented
// transport flow: it hashes exactly the byte sequence an inbound
// segment of that flow carries on the wire (peer address, local
// address, protocol, then the peer's source port and the local port in
// wire order). FNV-1a consumes bytes one at a time, so one 13-byte
// buffer here equals FrameKey's chunked accumulation — pinned by
// netstack's TestTupleShardMatchesRxFlowHash.
func TupleKey(raddr, laddr layers.IPAddr, proto byte, rport, lport uint16) uint64 {
	var b [13]byte
	copy(b[0:4], raddr[:])
	copy(b[4:8], laddr[:])
	b[8] = proto
	b[9], b[10] = byte(rport>>8), byte(rport)
	b[11], b[12] = byte(lport>>8), byte(lport)
	return core.HashBytes(core.HashSeed(), b[:])
}

// ProtoKey is FrameKey's value for a port-less flow (ICMP, unknown
// protocols): IP src/dst + protocol.
func ProtoKey(src, dst layers.IPAddr, proto byte) uint64 {
	h := core.HashBytes(core.HashSeed(), src[:])
	h = core.HashBytes(h, dst[:])
	return hashByte(h, proto)
}

// FragmentKey is FrameKey's value for a fragment: IP src/dst +
// protocol + the 16-bit IP ID, so every fragment of one datagram — and
// the reassembly state holding its pieces — keys identically.
func FragmentKey(src, dst layers.IPAddr, proto byte, id uint16) uint64 {
	h := ProtoKey(src, dst, proto)
	var b [2]byte
	b[0], b[1] = byte(id>>8), byte(id)
	return core.HashBytes(h, b[:])
}

// Static is the pre-policy behaviour: canonical flow key, modulo shard
// count, never rebalances. The zero value is ready to use.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Key implements Policy.
//
//ldlp:hotpath
func (Static) Key(frame []byte) uint64 { return FrameKey(frame) }

// Shard implements Policy.
//
//ldlp:hotpath
func (Static) Shard(key uint64, n int) int { return int(key % uint64(n)) }

// Rebalance implements Policy (static policies never migrate).
func (Static) Rebalance([]int64) []Migration { return nil }

// DefaultBuckets sizes LoadAware's indirection table when the caller
// passes 0: enough buckets that one hot flow shares its bucket with few
// bystanders, small enough that the table and counters stay cache-sized.
const DefaultBuckets = 256

// LoadAware routes through a bucket indirection table (key & mask ->
// shard) and re-homes hot buckets at rebalance points: the hottest
// shard sheds its largest movable buckets to the coldest shard until
// balance or the per-round migration bound is reached. A bucket whose
// single flow alone exceeds the imbalance (the unsplittable elephant)
// is never moved back and forth — a move must strictly improve balance.
//
// The table is written only inside Rebalance (a quiescent point) and
// read lock-free by Shard; the per-bucket counters are atomic because
// re-injected datagrams route from worker goroutines concurrently with
// the pump.
type LoadAware struct {
	shards int
	mask   uint64
	table  []int32
	counts []atomic.Int64

	// maxMoves bounds migrations per rebalance round (bounded work
	// stealing: each move costs a flow-state walk at quiescence).
	maxMoves int
	// threshold triggers rebalancing when the hottest shard's load
	// exceeds threshold x the mean.
	threshold float64
	// minFrames is the observation window: below it the round is
	// skipped and counts keep accumulating.
	minFrames int64

	rebalances int64 // rounds that moved at least one bucket
	moves      int64 // total buckets re-homed
}

// LoadAwareStats reports a LoadAware policy's rebalancing activity.
type LoadAwareStats struct {
	Rebalances  int64 `json:"rebalances"`
	BucketMoves int64 `json:"bucketMoves"`
}

// NewLoadAware builds a load-aware policy for a host with the given
// shard count. buckets (rounded up to a power of two, 0 selecting
// DefaultBuckets) sizes the indirection table.
func NewLoadAware(shards, buckets int) *LoadAware {
	if shards < 1 {
		shards = 1
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	n := 1
	for n < buckets || n < shards {
		n <<= 1
	}
	p := &LoadAware{
		shards:    shards,
		mask:      uint64(n - 1),
		table:     make([]int32, n),
		counts:    make([]atomic.Int64, n),
		maxMoves:  8,
		threshold: 1.25,
		minFrames: 64,
	}
	for b := range p.table {
		p.table[b] = int32(b % shards)
	}
	return p
}

// Name implements Policy.
func (p *LoadAware) Name() string { return "load-aware" }

// Key implements Policy.
//
//ldlp:hotpath
func (p *LoadAware) Key(frame []byte) uint64 { return FrameKey(frame) }

// Shard implements Policy: indirection-table lookup plus the per-bucket
// load count the next Rebalance reads.
//
//ldlp:hotpath
func (p *LoadAware) Shard(key uint64, n int) int {
	b := key & p.mask
	p.counts[b].Add(1)
	s := int(p.table[b])
	if s >= n {
		// Defensive: a policy built for more shards than the engine has
		// must still return a valid index.
		s %= n
	}
	return s
}

// Stats reports rebalancing activity. Read at quiescence, like the
// netstack counters.
func (p *LoadAware) Stats() LoadAwareStats {
	return LoadAwareStats{Rebalances: p.rebalances, BucketMoves: p.moves}
}

// Rebalance implements Policy. Per-shard totals come from the engine's
// observed loads when provided (the per-shard telemetry counters);
// per-bucket attribution always comes from the policy's own dispatch
// counts. Both count frames over the same window, so the greedy
// improvement test below can mix them. The counter window resets every
// round that reaches minFrames. Pump-side at quiescence, like every
// Rebalance implementation: it rewrites the routing table the workers'
// Shard calls read.
//
//ldlp:quiescent
func (p *LoadAware) Rebalance(loads []int64) []Migration {
	bc := make([]int64, len(p.counts))
	var total int64
	for b := range p.counts {
		bc[b] = p.counts[b].Load()
		total += bc[b]
	}
	if total < p.minFrames {
		return nil // window too small to judge; keep accumulating
	}
	per := make([]int64, p.shards)
	if len(loads) == p.shards {
		copy(per, loads)
	} else {
		for b, c := range bc {
			per[p.table[b]] += c
		}
	}
	var migs []Migration
	for len(migs) < p.maxMoves {
		hot, cold := 0, 0
		for s := 1; s < p.shards; s++ {
			if per[s] > per[hot] {
				hot = s
			}
			if per[s] < per[cold] {
				cold = s
			}
		}
		mean := total / int64(p.shards)
		if float64(per[hot]) <= p.threshold*float64(mean+1) {
			break // balanced enough
		}
		// Largest bucket on the hot shard whose move strictly improves
		// balance (the destination must end below the source's start).
		best, bestC := -1, int64(0)
		for b := range bc {
			if int(p.table[b]) != hot || bc[b] == 0 {
				continue
			}
			if bc[b] < per[hot]-per[cold] && bc[b] > bestC {
				best, bestC = b, bc[b]
			}
		}
		if best < 0 {
			break // nothing movable (an unsplittable elephant remains)
		}
		p.table[best] = int32(cold)
		per[hot] -= bestC
		per[cold] += bestC
		migs = append(migs, Migration{Bucket: uint64(best), Mask: p.mask, From: hot, To: cold})
	}
	for b := range p.counts {
		p.counts[b].Store(0)
	}
	if len(migs) > 0 {
		p.rebalances++
		p.moves += int64(len(migs))
	}
	return migs
}

// RPCDispatch is application-defined dispatch for a UDP RPC service
// (internal/rpc's Sun-RPC-style protocol): call messages to the given
// server port key by XID instead of by connection, so independent
// requests from one busy client spread across every shard. All other
// traffic — replies, other ports, fragments, non-RPC frames — keys
// exactly like Static, so TCP affinity and reassembly routing are
// untouched.
type RPCDispatch struct {
	port uint16
}

// NewRPCDispatch builds the policy for the RPC server bound to port.
func NewRPCDispatch(port uint16) *RPCDispatch { return &RPCDispatch{port: port} }

// Name implements Policy.
func (p *RPCDispatch) Name() string { return "rpc-xid" }

// rpcXID extracts the XID from an unfragmented UDP RPC call to the
// policy's port, reporting ok=false for everything else. Fragments are
// rejected even when the first fragment carries the header: every
// fragment of one datagram must key by IP ID or reassembly breaks.
//
//ldlp:hotpath
func (p *RPCDispatch) rpcXID(data []byte) (uint32, bool) {
	if len(data) < layers.EthernetLen+layers.IPv4MinLen {
		return 0, false
	}
	ip := data[layers.EthernetLen:]
	if ip[0]>>4 != 4 || ip[9] != layers.ProtoUDP {
		return 0, false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < layers.IPv4MinLen {
		return 0, false
	}
	if ff := uint16(ip[6])<<8 | uint16(ip[7]); ff&0x3fff != 0 {
		return 0, false // fragment: must key by IP ID
	}
	totalLen := int(ip[2])<<8 | int(ip[3])
	// The RPC header is xid(4) type(4) prog(4) proc(4) status(4) at the
	// start of the UDP payload; we need the first 8 bytes (xid + type),
	// proven to be datagram content by TotalLen and present in the frame.
	need := ihl + layers.UDPLen + 8
	if totalLen < need || len(ip) < need {
		return 0, false
	}
	udp := ip[ihl:]
	if dstPort := uint16(udp[2])<<8 | uint16(udp[3]); dstPort != p.port {
		return 0, false
	}
	pay := udp[layers.UDPLen:]
	typ := uint32(pay[4])<<24 | uint32(pay[5])<<16 | uint32(pay[6])<<8 | uint32(pay[7])
	if typ != 0 { // not a call
		return 0, false
	}
	return uint32(pay[0])<<24 | uint32(pay[1])<<16 | uint32(pay[2])<<8 | uint32(pay[3]), true
}

// Key implements Policy: the canonical flow key, with the XID folded in
// for RPC calls so each request gets its own key.
//
//ldlp:hotpath
func (p *RPCDispatch) Key(frame []byte) uint64 {
	h := FrameKey(frame)
	if xid, ok := p.rpcXID(frame); ok {
		var b [4]byte
		b[0], b[1] = byte(xid>>24), byte(xid>>16)
		b[2], b[3] = byte(xid>>8), byte(xid)
		h = core.HashBytes(h, b[:])
	}
	return h
}

// Shard implements Policy.
//
//ldlp:hotpath
func (p *RPCDispatch) Shard(key uint64, n int) int { return int(key % uint64(n)) }

// Rebalance implements Policy.
func (p *RPCDispatch) Rebalance([]int64) []Migration { return nil }
