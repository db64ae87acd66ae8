package netstack

import (
	"ldlp/internal/flowtable"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// IPv4 fragmentation and reassembly. The paper's traced fast path never
// sees fragments ("the message is addressed to the host and is not a
// fragment"), but a usable substrate needs the slow path too: datagrams
// larger than the link MTU are fragmented on output and reassembled on
// input, with a timer bounding how long partial datagrams are held.

// fragKey identifies one datagram being reassembled.
type fragKey struct {
	src   layers.IPAddr
	id    uint16
	proto byte
}

// pack serializes the key (4 address bytes + 2 ID bytes + protocol = 7
// bytes) into one word for the flow-table hash.
func (k fragKey) pack() uint64 {
	return uint64(k.src[0])<<48 | uint64(k.src[1])<<40 |
		uint64(k.src[2])<<32 | uint64(k.src[3])<<24 |
		uint64(k.id)<<8 | uint64(k.proto)
}

func fragHash(k fragKey) uint64 { return flowtable.Mix64(k.pack()) }

// fragQEntry is one slot of a shard's frag insertion-order queue. The
// state pointer disambiguates key reuse: if the datagram completed (or
// timed out) and a new reassembly later claimed the same key, the
// stale queue entry must not evict the newcomer — the pointer
// comparison in fragLive skips it.
type fragQEntry struct {
	key fragKey
	st  *fragState
}

// fragQueue is a shard's partial datagrams in deadline order, oldest at
// head. Entries go stale in place when their datagram completes, expires
// or is evicted; the queue sheds them at its head as the head advances
// and everywhere when its array fills, so it holds at most fragQueueCap
// slots however long the host runs, and a shed slot is zeroed so it
// does not pin the datagram's reassembly buffers.
type fragQueue struct {
	buf  []fragQEntry
	head int
}

// fragQueueCap is the queue's fixed array: every live entry fits in
// half of it (the table holds at most maxFragStates), so sliding a full
// array down frees at least the other half and a push stays O(1)
// amortized.
const fragQueueCap = 2 * maxFragStates

// fragState tracks received byte ranges of one datagram. data and have
// grow geometrically (capacity doubling) and are reused across all
// fragments of the datagram, so reassembly costs O(log n) allocations
// per datagram instead of one exact-size reallocation per fragment.
type fragState struct {
	data      []byte
	have      []bool
	haveBytes int // count of distinct bytes received, for O(1) completion
	totalLen  int // payload length once the last fragment arrives; -1 until
	deadline  float64
}

const (
	// fragTimeout is how long partial datagrams are kept (BSD uses 30 s;
	// simulated time is cheap so we match).
	fragTimeout = 30.0
	// maxFragPayload bounds a reassembled datagram.
	maxFragPayload = 65535
	// maxFragStates caps concurrent partial datagrams per host. Without
	// a cap, a stream of first-fragments pins up to fragTimeout of
	// state each — an easy memory-exhaustion lever under impairment or
	// attack. At the cap the oldest partial datagram is evicted
	// (counted as a ReassemblyTimeouts, which is what it would have
	// become anyway).
	maxFragStates = 64
)

// fragmentOutput splits an IP payload into MTU-sized fragments and
// transmits each. Called by ipOutput when the datagram exceeds the MTU,
// so it inherits ipOutput's shard: fragments are built from the calling
// shard's pool and leave through its transmit queue.
func (ts *transportShard) fragmentOutput(m *mbuf.Mbuf, proto byte, dst layers.IPAddr, mtu int) {
	h := ts.h
	// Contiguous returns a view into the chain's own buffer when it is a
	// single mbuf, so the chain must stay alive until the last fragment
	// has been copied out — freeing first hands the cluster back to the
	// pool, where the first FromBytes below immediately reuses (and
	// clobbers) it.
	payload := m.Contiguous()
	defer m.FreeChain()
	// Per-fragment payload: MTU minus the IP header, rounded down to a
	// multiple of 8 (fragment offsets are in 8-byte units).
	per := (mtu - layers.IPv4MinLen) / 8 * 8
	if per <= 0 {
		panic("netstack: MTU too small to fragment")
	}
	id := h.nextIPID()
	for off := 0; off < len(payload); off += per {
		end := off + per
		mf := byte(0x1)
		if end >= len(payload) {
			end = len(payload)
			mf = 0
		}
		frag := ts.pool.FromBytes(payload[off:end])
		ip := layers.IPv4{
			TotalLen: layers.IPv4MinLen + (end - off),
			ID:       id,
			Flags:    mf,
			FragOff:  off,
			TTL:      64,
			Protocol: proto,
			Src:      h.ip,
			Dst:      dst,
		}
		fm, hdr := frag.Prepend(layers.IPv4MinLen)
		ip.Encode(hdr)
		eth := layers.Ethernet{Dst: MACFor(dst), Src: h.mac, EtherType: layers.EtherTypeIPv4}
		fm, hdr = fm.Prepend(layers.EthernetLen)
		eth.Encode(hdr)
		inc(&h.Counters.FramesOut)
		inc(&h.Counters.FragmentsSent)
		ts.transmit(frame{dst: eth.Dst, m: fm})
	}
}

// reassemble folds one received fragment in. It returns the complete
// payload when the datagram finishes, or nil while holes remain. All
// fragments of one datagram hash to the same shard (RSS falls back to
// the IP ID for fragments), so the shard's frags map needs no lock.
// A declared cold step off the hot ipInput: fragmented datagrams are
// the exception in a small-message protocol, and reassembly buffers
// allocate by design.
//
//ldlp:coldpath
func (rx *rxPath) reassemble(p *Packet) []byte {
	h, ts := rx.h, rx.ts
	ts.initFrags()
	key := fragKey{src: p.IP.Src, id: p.IP.ID, proto: p.IP.Protocol}
	fragPayload := p.M.Contiguous()
	off := p.IP.FragOff
	end := off + len(fragPayload)
	if end > maxFragPayload {
		// Malformed fragment: drop it alone. It must not tear down a
		// legitimate in-progress datagram that happens to share its key
		// (that would let one spoofed fragment veto any reassembly).
		h.reject(rx.tel, rx.ipin.Index(), telemetry.DropBadIP)
		return nil
	}
	st, _ := ts.frags.Lookup(key)
	if st == nil {
		if ts.frags.Len() >= maxFragStates {
			ts.evictOldestFrag(rx.tel, rx.ipin.Index())
		}
		st = &fragState{totalLen: -1, deadline: h.net.now + fragTimeout}
		ts.frags.Insert(key, st)
		// All partial datagrams share one timeout, so appending here
		// keeps fragq in deadline order — the O(1) eviction depends on
		// it.
		ts.fragRoom()
		ts.fragq.buf = append(ts.fragq.buf, fragQEntry{key: key, st: st})
	}
	if end > len(st.data) {
		if end <= cap(st.data) {
			// Reuse slack from an earlier doubling — no allocation, and
			// make-grown regions are already zeroed.
			st.data = st.data[:end]
			st.have = st.have[:end]
		} else {
			// Double capacity so a k-fragment datagram reallocates
			// O(log k) times, not k.
			newCap := 2 * cap(st.data)
			if newCap < end {
				newCap = end
			}
			if newCap > maxFragPayload {
				newCap = maxFragPayload
			}
			grown := make([]byte, end, newCap)
			copy(grown, st.data)
			st.data = grown
			grownHave := make([]bool, end, newCap)
			copy(grownHave, st.have)
			st.have = grownHave
		}
	}
	copy(st.data[off:end], fragPayload)
	for i := off; i < end; i++ {
		if !st.have[i] {
			st.have[i] = true
			st.haveBytes++
		}
	}
	if !p.IP.MoreFragments() {
		st.totalLen = end
	}
	// Fast reject while incomplete: the byte count cannot reach totalLen
	// before every in-range byte arrived (overlaps count once). Then one
	// confirming scan — a malformed fragment past the announced end could
	// inflate the count — which runs only when completion is plausible.
	if st.totalLen < 0 || len(st.data) < st.totalLen || st.haveBytes < st.totalLen {
		return nil
	}
	for i := 0; i < st.totalLen; i++ {
		if !st.have[i] {
			return nil
		}
	}
	ts.frags.Delete(key)
	inc(&h.Counters.Reassembled)
	return st.data[:st.totalLen]
}

// initFrags builds the shard's reassembly state on its first fragment,
// pre-sized for the cap: the table never needs to grow, so reassembly
// never migrates, and the queue never leaves its first array.
func (ts *transportShard) initFrags() {
	if ts.frags == nil {
		ts.frags = flowtable.New[fragKey, *fragState](maxFragStates, fragHash)
		ts.fragq.buf = make([]fragQEntry, 0, fragQueueCap)
	}
}

// fragLive reports whether queue entry e still stands for a partial
// datagram this shard holds.
func (ts *transportShard) fragLive(e fragQEntry) bool {
	cur, ok := ts.frags.Lookup(e.key)
	return ok && cur == e.st
}

// fragRoom makes room for one more queue entry: a full array is slid
// down onto itself, stale entries left behind, instead of grown.
func (ts *transportShard) fragRoom() {
	q := &ts.fragq
	if len(q.buf) < cap(q.buf) {
		return
	}
	live := q.buf[:0]
	for _, e := range q.buf[q.head:] {
		if ts.fragLive(e) {
			live = append(live, e)
		}
	}
	clear(q.buf[len(live):])
	q.buf, q.head = live, 0
}

// shedStaleFrags advances the queue's head past stale entries, zeroing
// each; a drained queue resets onto its own array.
func (ts *transportShard) shedStaleFrags() {
	q := &ts.fragq
	for q.head < len(q.buf) && !ts.fragLive(q.buf[q.head]) {
		q.buf[q.head] = fragQEntry{}
		q.head++
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// fragsLen reports live partial reassemblies (nil-safe: the table is
// built lazily on the first fragment).
func (ts *transportShard) fragsLen() int {
	if ts.frags == nil {
		return 0
	}
	return ts.frags.Len()
}

// evictOldestFrag reclaims the partial datagram closest to expiry (the
// oldest, since all share one timeout), making room for a new one at
// the maxFragStates cap. Counted as a reassembly timeout: the datagram
// is abandoned exactly as if its timer had fired. O(1) amortized: the
// fragq queue is in insertion == deadline order, so the oldest is the
// first entry that is not stale, and a stale head is passed over once.
// The drop is recorded on tr, the caller's tracer, at layer.
func (ts *transportShard) evictOldestFrag(tr *telemetry.Tracer, layer int) {
	ts.shedStaleFrags()
	if q := &ts.fragq; q.head < len(q.buf) {
		ts.frags.Delete(q.buf[q.head].key)
		ts.h.reject(tr, layer, telemetry.DropReasmTimeout)
		ts.shedStaleFrags()
	}
}

// fragTick expires stale partial datagrams. Pump-side at quiescence,
// like tcpTick, walking every shard's table (Range tolerates the
// deletes; nothing here inserts).
//
//ldlp:quiescent
func (h *Host) fragTick() {
	for _, ts := range h.tshards {
		if ts.frags == nil {
			continue
		}
		ts.frags.Range(func(key fragKey, st *fragState) bool {
			if h.net.now >= st.deadline {
				ts.frags.Delete(key)
				h.reject(h.telPump, 0, telemetry.DropReasmTimeout)
			}
			return true
		})
		ts.shedStaleFrags()
	}
}
