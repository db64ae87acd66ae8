package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ldlp/internal/core"
	"ldlp/internal/flowtable"
	"ldlp/internal/layers"
	"ldlp/internal/telemetry"
)

// TCP-lite: enough of TCP for the examples and benchmarks to move real
// data — three-way handshake, cumulative ACKs, flow-control window, the
// 4.4BSD header-prediction fast path with a single-entry PCB cache, an
// ACK for every second data segment (the behaviour §2's trace captures),
// FIN teardown and timer-driven retransmission. No congestion control,
// options, or urgent data.

const (
	tcpMSS        = 1460
	tcpWindow     = 65535
	tcpRTO        = 0.2 // seconds
	tcpMaxBackoff = 3.2
	// tcpMaxRetries bounds retransmissions of one segment: after this
	// many unanswered tries the connection gives up with ErrTimeout
	// instead of pinning its PCB forever behind a dead peer or a
	// partition (with the capped backoff that is ~20 s of trying).
	tcpMaxRetries = 8
	// tcpPersist is the zero-window probe interval: if the peer closes
	// its window and the reopening window update is lost, the sender
	// probes rather than deadlocking.
	tcpPersist = 0.5
	// tcp2MSL holds a closed connection in TIME-WAIT so late segments
	// (and a retransmitted FIN) are handled rather than treated as new.
	tcp2MSL = 1.0
	// tcpBacklog bounds un-accepted connections per listener.
	tcpBacklog = 16
)

type tcpState uint8

const (
	stClosed tcpState = iota
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait1
	stFinWait2
	stCloseWait
	stLastAck
	stTimeWait
)

var tcpStateNames = map[tcpState]string{
	stClosed: "closed", stSynSent: "syn-sent", stSynRcvd: "syn-rcvd",
	stEstablished: "established", stFinWait1: "fin-wait-1",
	stFinWait2: "fin-wait-2", stCloseWait: "close-wait",
	stLastAck: "last-ack", stTimeWait: "time-wait",
}

func (s tcpState) String() string { return tcpStateNames[s] }

type fourTuple struct {
	raddr layers.IPAddr
	rport uint16
	lport uint16
}

// pack serializes the tuple into one word (4 address bytes + 2 ports =
// exactly 8 bytes), so the flow-table hash is a pack plus one mix —
// no byte loop on the lookup fast path.
func (t fourTuple) pack() uint64 {
	return uint64(t.raddr[0])<<56 | uint64(t.raddr[1])<<48 |
		uint64(t.raddr[2])<<40 | uint64(t.raddr[3])<<32 |
		uint64(t.rport)<<16 | uint64(t.lport)
}

// pcbHasher builds the per-shard PCB flow-table hash: seeded so
// distinct shards (and hosts) probe independently.
func pcbHasher(seed uint64) func(fourTuple) uint64 {
	return func(t fourTuple) uint64 { return flowtable.Mix64(t.pack() ^ seed) }
}

// unackedSeg is one tracked segment. Its n payload bytes stay in the
// send queue, which starts at the oldest tracked segment's first byte.
type unackedSeg struct {
	seq     uint32
	n       uint32
	syn     bool
	fin     bool
	sentAt  float64
	backoff float64
	tries   int // timer retransmissions so far
}

type tcpPCB struct {
	host *Host
	// owner is the transport shard this connection lives on (the shard
	// the 4-tuple flow hash routes its segments to). Every touch of the
	// PCB happens on the owner's worker, or on the pump at quiescence.
	owner *transportShard
	tuple fourTuple
	// Small fields are as narrow as their ranges allow: the PCB fills
	// the 192-byte allocator size class exactly (TestTCPPCBSize).
	state         tcpState
	delAckPending uint8
	finQueued     bool
	// estab mirrors "state reached ESTABLISHED" with atomic semantics:
	// the one PCB field the cross-shard accept hand-off reads while the
	// owning worker may be writing state. Set once, never cleared.
	estab atomic.Bool

	iss, irs       uint32
	sndUna, sndNxt uint32
	rcvNxt         uint32
	sndWnd         int32 // the peer's 16-bit advertised window

	// snd is the send queue, 4.4BSD so_snd style, and so also the
	// retransmission queue: every byte written that the peer has not
	// acknowledged as part of a whole segment. Its first sndSent bytes
	// have been transmitted and are described, in order, by unacked; the
	// rest wait for window. rcv is the receive buffer Recv drains.
	snd, rcv byteQueue
	sndSent  uint32
	unacked  []unackedSeg

	sock *TCPSock
	// err records why the connection died (ErrTimeout after
	// retransmission gives up); surfaced through TCPSock.Err and Send.
	err error

	// lastProbe is the last zero-window persist probe time.
	lastProbe float64
	// timeWaitAt, when nonzero, is when TIME-WAIT expires and the PCB is
	// reaped.
	timeWaitAt float64
}

// byteQueue is a FIFO of bytes that keeps its storage: consuming
// advances a head index, a drained queue resets onto its own array, and
// a write that would grow the array first slides the live bytes down —
// so a reader (or an acknowledging peer) that never quite drains it
// cannot make it creep.
type byteQueue struct {
	buf  []byte
	head int
}

func (q *byteQueue) len() int { return len(q.buf) - q.head }

// bytes is the queued data, oldest first; valid until the next write.
func (q *byteQueue) bytes() []byte { return q.buf[q.head:] }

func (q *byteQueue) write(p []byte) {
	if q.head > 0 && len(q.buf)+len(p) > cap(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	//lint:ignore hotpathalloc grows only to the deepest backlog held: the 64 KB window on the receive side, what the application has written and the peer not yet acknowledged on the send side
	q.buf = append(q.buf, p...)
}

func (q *byteQueue) consume(n int) {
	if q.head += n; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// TCPSock is a stream socket handle.
type TCPSock struct {
	pcb *tcpPCB
}

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	host *Host
	port uint16
	// mu guards backlog: SYNs from different remotes arrive on different
	// shard workers, and Accept may run concurrently with all of them —
	// the accept hand-off moves only the *TCPSock handle across shards,
	// never the PCB itself, which stays on its owning shard.
	mu      sync.Mutex
	backlog []*TCPSock
	// Dropped counts SYNs discarded because the backlog was full.
	// Updated with atomic adds, like the host Counters; read while the
	// network is quiescent, or via DroppedCount.
	Dropped int64
}

// DroppedCount reads the backlog-drop counter with atomic semantics,
// safe while shard workers are running.
func (l *TCPListener) DroppedCount() int64 { return atomic.LoadInt64(&l.Dropped) }

var (
	// ErrPortInUse is returned when binding an occupied port.
	ErrPortInUse = errors.New("netstack: port in use")
	// ErrClosed is returned for operations on closed sockets.
	ErrClosed = errors.New("netstack: socket closed")
	// ErrTimeout is returned after retransmission gives up on an
	// unresponsive peer and the connection is torn down.
	ErrTimeout = errors.New("netstack: connection timed out")
)

// nextISS draws an initial send sequence number from ts's own counter,
// so a host numbers its connections the same way on every run and no
// two shard workers share the counter. The shard index in the top byte
// keeps two shards' sequence spaces apart.
func (ts *transportShard) nextISS() uint32 {
	ts.issSeq += 64000
	return 1000 + uint32(ts.idx)<<24 + ts.issSeq
}

// ListenTCP opens a passive socket on port.
func (h *Host) ListenTCP(port uint16) (*TCPListener, error) {
	if _, ok := h.listeners[port]; ok {
		return nil, fmt.Errorf("%w: tcp %d", ErrPortInUse, port)
	}
	l := &TCPListener{host: h, port: port}
	h.listeners[port] = l
	return l, nil
}

// Accept returns a pending inbound connection, or nil if none has
// completed the handshake yet. This is the declared cross-shard
// hand-off: it is safe to call while shard workers run — the backlog is
// locked and readiness is read through the PCB's atomic estab flag, so
// only the socket handle crosses goroutines here. The PCB stays owned
// by its shard; use the returned socket's other methods only while the
// network is quiescent.
func (l *TCPListener) Accept() *TCPSock {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range l.backlog {
		if s.pcb.estab.Load() {
			l.backlog = append(l.backlog[:i], l.backlog[i+1:]...)
			return s
		}
	}
	return nil
}

// Close stops listening (existing connections are unaffected).
func (l *TCPListener) Close() { delete(l.host.listeners, l.port) }

// DialTCP initiates a connection; the handshake completes as the network
// is pumped (check Established or poll Accept on the peer). Pump-side
// hand-off point: the new PCB is planted directly on the shard the
// connection's inbound segments will hash to, so from the first SYN-ACK
// onward only that shard's worker touches it. Pump-side: call between
// pumps, never concurrently with them.
//
// The local port comes from a per-host counter cycling through
// 32768–65535, passing over a port whose tuple is still in the PCB
// table. With all of them taken the socket comes back closed, Err
// reporting ErrPortInUse.
//
//ldlp:quiescent
func (h *Host) DialTCP(dst layers.IPAddr, port uint16) *TCPSock {
	pcb := &tcpPCB{
		host:  h,
		tuple: fourTuple{raddr: dst, rport: port},
	}
	pcb.sndWnd = tcpWindow
	pcb.sock = &TCPSock{pcb: pcb}
	for tries := 0; tries < 1<<15; tries++ {
		h.ephemeral = 1<<15 | (h.ephemeral + 1)
		pcb.tuple.lport = h.ephemeral
		pcb.owner = h.tupleShard(pcb.tuple)
		if _, taken := pcb.owner.pcbs.Lookup(pcb.tuple); !taken {
			pcb.iss = pcb.owner.nextISS()
			pcb.sndUna, pcb.sndNxt = pcb.iss, pcb.iss
			pcb.state = stSynSent
			pcb.owner.pcbs.Insert(pcb.tuple, pcb)
			pcb.sendSegment(layers.TCPSyn, nil, true)
			return pcb.sock
		}
	}
	pcb.err = ErrPortInUse
	return pcb.sock
}

// Established reports whether the handshake has completed.
//
//ldlp:quiescent
func (s *TCPSock) Established() bool { return s.pcb.state == stEstablished }

// State names the connection state.
//
//ldlp:quiescent
func (s *TCPSock) State() string { return s.pcb.state.String() }

// Err reports why the connection died (ErrTimeout after retransmission
// exhausted its retries), or nil while it is healthy.
//
//ldlp:quiescent
func (s *TCPSock) Err() error { return s.pcb.err }

// Send queues data for transmission (flow-controlled by the peer's
// window as the network is pumped). Sending remains legal in CLOSE-WAIT:
// the peer half-closed, our direction is still open.
//
//ldlp:quiescent
//ldlp:hotpath
func (s *TCPSock) Send(data []byte) error {
	switch s.pcb.state {
	case stEstablished, stSynSent, stSynRcvd, stCloseWait:
	default:
		if s.pcb.err != nil {
			return s.pcb.err
		}
		return ErrClosed
	}
	s.pcb.snd.write(data)
	s.pcb.trySend()
	return nil
}

// Recv copies received data into buf, returning the number of bytes (0
// when nothing is buffered). Draining a previously-full buffer sends a
// window update so a stalled peer resumes (the sb-drop wakeup path).
//
//ldlp:quiescent
//ldlp:hotpath
func (s *TCPSock) Recv(buf []byte) int {
	pcb := s.pcb
	before := pcb.rcv.len()
	n := copy(buf, pcb.rcv.bytes())
	pcb.rcv.consume(n)
	if n > 0 && before >= tcpWindow/2 && pcb.state == stEstablished {
		pcb.sendAck() // window update
	}
	return n
}

// Buffered reports bytes waiting in the receive buffer.
//
//ldlp:quiescent
func (s *TCPSock) Buffered() int { return s.pcb.rcv.len() }

// Close sends FIN after queued data drains.
//
//ldlp:quiescent
func (s *TCPSock) Close() {
	pcb := s.pcb
	switch pcb.state {
	case stEstablished:
		pcb.state = stFinWait1
	case stCloseWait:
		pcb.state = stLastAck
	case stSynSent, stSynRcvd:
		pcb.teardown()
		return
	default:
		return
	}
	pcb.finQueued = true
	pcb.trySend()
}

// timeout kills a connection whose retransmissions went unanswered:
// mark the socket failed, release the send queue and its segment
// records (nothing will ever ack them) and tear the PCB down so it
// stops consuming timer cycles and map space.
func (pcb *tcpPCB) timeout() {
	pcb.err = ErrTimeout
	pcb.unacked = nil
	pcb.snd, pcb.sndSent = byteQueue{}, 0
	pcb.finQueued = false
	pcb.host.reject(pcb.host.telPump, 0, telemetry.DropTimeout)
	pcb.teardown()
}

func (pcb *tcpPCB) teardown() {
	if pcb.owner.last == pcb {
		pcb.owner.last = nil
	}
	pcb.owner.pcbs.Delete(pcb.tuple)
	pcb.state = stClosed
}

// lookupPCB finds the PCB for a tuple: first the shard's single-entry
// PCB cache (§2's, 4.4BSD's tcp_last_inpcb: a hit is one pointer load
// and one 8-byte compare), then the shard's open-addressed flow table,
// whose answer becomes the new cached entry. A miss is counted; hits
// are tcpSegs minus misses.
//
//ldlp:hotpath
func (ts *transportShard) lookupPCB(t fourTuple) *tcpPCB {
	if ts.last != nil && ts.last.tuple == t {
		return ts.last
	}
	ts.tally.pcbMisses++
	pcb, _ := ts.pcbs.Lookup(t)
	ts.last = pcb
	return pcb
}

// tcpInput is the receive-path TCP layer. No lock protects connection
// state: RSS hashes a connection's segments to one shard, and the PCB
// lives on that shard, so the worker running here is the only goroutine
// that ever touches it.
//
//ldlp:hotpath
func (rx *rxPath) tcpInput(p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	seg := p.M.Contiguous()
	n, err := p.TCP.Decode(seg, p.IP.Src, p.IP.Dst)
	if err != nil {
		rx.reject(p, rx.tcpin, telemetry.DropBadTCP)
		return
	}
	payload := seg[n:]
	th := &p.TCP
	tuple := fourTuple{raddr: p.IP.Src, rport: th.SrcPort, lport: th.DstPort}

	rx.ts.tally.tcpSegs++
	pcb := rx.ts.lookupPCB(tuple)

	if pcb == nil {
		rx.tcpPassiveOpen(p, tuple, th)
		return
	}

	// Header prediction: the 4.4BSD fast path. Established, plain
	// ACK(+PSH), in-order, window unchanged handling is folded in.
	if pcb.state == stEstablished &&
		th.Flags&^(layers.TCPAck|layers.TCPPsh) == 0 &&
		th.Flags&layers.TCPAck != 0 &&
		th.Seq == pcb.rcvNxt {
		inc(&h.Counters.TCPFastPath)
		pcb.processAck(th)
		if len(payload) > 0 {
			pcb.acceptData(payload)
			inc(&h.Counters.DataSegsIn)
			emit(rx.sock, p)
			return
		}
		rx.retire(p)
		return
	}

	inc(&h.Counters.TCPSlowPath)
	rx.tcpSlowPath(pcb, th, payload, p, emit)
}

// tcpPassiveOpen handles a segment with no matching PCB: a SYN to a
// listener creates the connection, anything else bumps NoSocket.
// Connection setup runs once per connection, not per segment, so its
// allocations live here rather than in the hot-tagged tcpInput. The new
// PCB lands in rx's own shard map — the flow hash that routed this SYN
// here routes the rest of the connection here too. Only the backlog
// append crosses shards (other remotes' SYNs hash elsewhere), so just
// that step takes the listener lock. It retires or rejects p. A
// declared cold step off the hot tcpInput: once per connection, never
// per segment.
//
//ldlp:coldpath
func (rx *rxPath) tcpPassiveOpen(p *Packet, tuple fourTuple, th *layers.TCP) {
	h := rx.h
	l, ok := h.listeners[th.DstPort]
	if th.Flags&layers.TCPSyn == 0 || th.Flags&layers.TCPAck != 0 || !ok {
		rx.reject(p, rx.tcpin, telemetry.DropNoSocket)
		return
	}
	pcb := &tcpPCB{
		host: h, owner: rx.ts, tuple: tuple, state: stSynRcvd,
		iss: rx.ts.nextISS(), irs: th.Seq,
		rcvNxt: th.Seq + 1, sndWnd: int32(th.Window),
	}
	pcb.sndUna, pcb.sndNxt = pcb.iss, pcb.iss
	pcb.sock = &TCPSock{pcb: pcb}
	l.mu.Lock()
	if len(l.backlog) >= tcpBacklog {
		l.mu.Unlock()
		atomic.AddInt64(&l.Dropped, 1)
		rx.reject(p, rx.tcpin, telemetry.DropListenOverflow)
		return
	}
	l.backlog = append(l.backlog, pcb.sock)
	l.mu.Unlock()
	rx.ts.pcbs.Insert(tuple, pcb)
	pcb.sendSegment(layers.TCPSyn|layers.TCPAck, nil, true)
	rx.retire(p)
}

// tcpSlowPath handles everything header prediction does not. Like
// tcpInput it runs lock-free on the PCB's owning shard.
func (rx *rxPath) tcpSlowPath(pcb *tcpPCB, th *layers.TCP, payload []byte, p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	if th.Flags&layers.TCPRst != 0 {
		pcb.teardown()
		rx.retire(p)
		return
	}

	switch pcb.state {
	case stSynSent:
		if th.Flags&(layers.TCPSyn|layers.TCPAck) == layers.TCPSyn|layers.TCPAck &&
			th.Ack == pcb.iss+1 {
			pcb.irs = th.Seq
			pcb.rcvNxt = th.Seq + 1
			pcb.sndUna = th.Ack
			pcb.sndNxt = th.Ack
			pcb.sndWnd = int32(th.Window)
			pcb.state = stEstablished
			pcb.estab.Store(true)
			pcb.dropAcked(th.Ack)
			pcb.sendAck()
			pcb.trySend()
		}
		rx.retire(p)
		return
	case stSynRcvd:
		if th.Flags&layers.TCPAck != 0 && th.Ack == pcb.iss+1 {
			pcb.sndUna = th.Ack
			pcb.sndNxt = th.Ack
			pcb.sndWnd = int32(th.Window)
			pcb.state = stEstablished
			pcb.estab.Store(true)
			pcb.dropAcked(th.Ack)
		}
		// Fall through: the ACK completing the handshake may carry data.
	}

	if th.Flags&layers.TCPAck != 0 {
		pcb.processAck(th)
	}

	if th.Seq != pcb.rcvNxt {
		// Out of order (or duplicate): this lite stack does not reassemble;
		// re-ACK what we expect so the peer retransmits. Only segments
		// that carry something (data, SYN, FIN) get the re-ACK: a pure
		// ACK's Seq rides at the sender's sndNxt, so when both directions
		// have data in flight each side's dup-ACK looks out-of-order to
		// the other and re-ACKing it back livelocks the link in an ACK
		// war. Its cumulative ACK and window were already processed above;
		// dropping it silently loses nothing.
		if len(payload) > 0 || th.Flags&(layers.TCPSyn|layers.TCPFin) != 0 {
			pcb.sendAck()
		}
		rx.retire(p)
		return
	}

	delivered := false
	if len(payload) > 0 {
		switch pcb.state {
		case stEstablished, stFinWait1, stFinWait2:
			pcb.acceptData(payload)
			inc(&h.Counters.DataSegsIn)
			delivered = true
		}
	}

	if th.Flags&layers.TCPFin != 0 {
		pcb.rcvNxt++
		switch pcb.state {
		case stEstablished:
			pcb.state = stCloseWait
		case stFinWait1, stFinWait2:
			pcb.state = stTimeWait
			pcb.timeWaitAt = h.net.now + tcp2MSL
		case stTimeWait:
			// Retransmitted FIN: restart 2MSL, re-ACK below.
			pcb.rcvNxt-- // do not double-count the FIN
			pcb.timeWaitAt = h.net.now + tcp2MSL
		}
		pcb.sendAck()
	}

	if pcb.state == stLastAck && pcb.sndUna == pcb.sndNxt {
		pcb.teardown()
	}
	if pcb.state == stFinWait1 && pcb.sndUna == pcb.sndNxt {
		pcb.state = stFinWait2
	}

	if delivered {
		emit(rx.sock, p)
	} else {
		rx.retire(p)
	}
}

// acceptData appends in-order payload and runs the delayed-ACK rule: an
// ACK for every second data segment.
func (pcb *tcpPCB) acceptData(payload []byte) {
	pcb.rcvNxt += uint32(len(payload))
	pcb.rcv.write(payload)
	pcb.delAckPending++
	if pcb.delAckPending >= 2 {
		pcb.sendAck()
	}
}

// processAck advances sndUna, releases acked segments and window, and
// sends more queued data.
func (pcb *tcpPCB) processAck(th *layers.TCP) {
	if seqAfter(th.Ack, pcb.sndUna) && !seqAfter(th.Ack, pcb.sndNxt) {
		pcb.sndUna = th.Ack
		pcb.dropAcked(th.Ack)
	}
	pcb.sndWnd = int32(th.Window)
	pcb.trySend()
}

// dropAcked retires every tracked segment ack covers whole, consuming
// its bytes from the send queue; one acknowledged only in part stays.
func (pcb *tcpPCB) dropAcked(ack uint32) {
	keep := pcb.unacked[:0]
	for _, u := range pcb.unacked {
		end := u.seq + u.n
		if u.syn || u.fin {
			end++
		}
		if seqAfter(end, ack) {
			keep = append(keep, u)
		} else if u.n > 0 {
			pcb.snd.consume(int(u.n))
			pcb.sndSent -= u.n
		}
	}
	pcb.unacked = keep
}

// seqAfter reports a > b in sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// inFlight reports unacknowledged bytes.
func (pcb *tcpPCB) inFlight() int { return int(pcb.sndNxt - pcb.sndUna) }

// trySend transmits queued data within the peer's window, then a queued
// FIN.
func (pcb *tcpPCB) trySend() {
	if pcb.state != stEstablished && pcb.state != stFinWait1 && pcb.state != stLastAck &&
		pcb.state != stCloseWait {
		return
	}
	for unsent := pcb.snd.bytes()[pcb.sndSent:]; len(unsent) > 0; {
		room := int(pcb.sndWnd) - pcb.inFlight()
		if room <= 0 {
			return
		}
		n := min(tcpMSS, len(unsent), room)
		pcb.sendSegment(layers.TCPAck|layers.TCPPsh, unsent[:n], true)
		unsent = unsent[n:]
	}
	if pcb.finQueued {
		pcb.finQueued = false
		pcb.sendSegment(layers.TCPFin|layers.TCPAck, nil, true)
	}
}

// sendAck emits a bare ACK and clears the delayed-ACK counter.
func (pcb *tcpPCB) sendAck() {
	pcb.delAckPending = 0
	inc(&pcb.host.Counters.AcksSent)
	pcb.sendSegment(layers.TCPAck, nil, false)
}

// sendSegment builds and transmits one segment; track=true records it for
// retransmission (SYN/FIN/data), and a tracked payload must be the send
// queue's next unsent bytes: the record keeps only their length. Output
// goes through the owning shard's pool and transmit queue, so segment
// emission never crosses shards.
func (pcb *tcpPCB) sendSegment(flags byte, payload []byte, track bool) {
	h := pcb.host
	th := layers.TCP{
		SrcPort: pcb.tuple.lport,
		DstPort: pcb.tuple.rport,
		Seq:     pcb.sndNxt,
		Window:  uint16(tcpWindow - min(pcb.rcv.len(), tcpWindow)),
	}
	if pcb.state != stSynSent { // no ACK field before the handshake
		th.Ack = pcb.rcvNxt
	}
	th.Flags = flags

	m := pcb.owner.pool.FromBytes(payload)
	mm, hdr := m.Prepend(layers.TCPMinLen)
	th.Encode(hdr, payload, h.ip, pcb.tuple.raddr)

	consumed := uint32(len(payload))
	if flags&layers.TCPSyn != 0 || flags&layers.TCPFin != 0 {
		consumed++
	}
	if track && consumed > 0 {
		//lint:ignore hotpathalloc retransmission queue is bounded by the send window
		pcb.unacked = append(pcb.unacked, unackedSeg{
			seq: pcb.sndNxt, n: uint32(len(payload)),
			syn: flags&layers.TCPSyn != 0, fin: flags&layers.TCPFin != 0,
			sentAt: h.net.now, backoff: tcpRTO,
		})
		pcb.sndSent += uint32(len(payload))
		pcb.sndNxt += consumed
	}
	pcb.owner.ipOutput(mm, layers.ProtoTCP, pcb.tuple.raddr)
}

// tcpTick fires retransmission, delayed-ACK, persist and TIME-WAIT
// timers. It runs on the pump between Drain and the next deliver, when
// every shard worker is parked, and may walk all shards' PCB maps.
//
//ldlp:quiescent
func (h *Host) tcpTick() {
	for _, ts := range h.tshards {
		ts.tcpTickShard()
	}
}

func (ts *transportShard) tcpTickShard() {
	h := ts.h
	// Range tolerates the deletes teardown/timeout perform mid-walk
	// (flow-table deletes never relocate entries); nothing here inserts.
	ts.pcbs.Range(func(_ fourTuple, pcb *tcpPCB) bool {
		if pcb.state == stTimeWait {
			if h.net.now >= pcb.timeWaitAt {
				pcb.teardown()
			}
			return true
		}
		if pcb.delAckPending > 0 {
			inc(&h.Counters.DelayedAcks)
			pcb.sendAck()
		}
		// Zero-window persist: data queued, nothing in flight, no window.
		if unsent := pcb.snd.bytes()[pcb.sndSent:]; len(unsent) > 0 && pcb.inFlight() == 0 &&
			pcb.sndWnd <= 0 && pcb.state == stEstablished &&
			h.net.now-pcb.lastProbe >= tcpPersist {
			pcb.lastProbe = h.net.now
			inc(&h.Counters.WindowProbes)
			// Probe with one byte of real data, tracked like any send.
			pcb.sendSegment(layers.TCPAck|layers.TCPPsh, unsent[:1], true)
		}
		if len(pcb.unacked) == 0 {
			return true
		}
		u := &pcb.unacked[0]
		if h.net.now-u.sentAt >= u.backoff {
			if u.tries >= tcpMaxRetries {
				// The peer is gone (dead host, standing partition):
				// stop pinning the PCB and its queues forever. Error
				// the socket so the application sees the failure, free
				// everything queued, and reap the connection.
				pcb.timeout()
				return true
			}
			u.tries++
			inc(&h.Counters.Retransmits)
			h.telPump.Event(telemetry.EvRetransmit, 0, int64(u.seq))
			u.sentAt = h.net.now
			if u.backoff < tcpMaxBackoff {
				u.backoff *= 2
			}
			flags := byte(layers.TCPAck)
			if u.syn {
				flags = layers.TCPSyn
				if pcb.state != stSynSent {
					flags |= layers.TCPAck
				}
			}
			if u.fin {
				flags |= layers.TCPFin
			}
			if u.n > 0 {
				flags |= layers.TCPPsh
			}
			pcb.retransmit(u, flags)
		}
		return true
	})
}

// retransmit re-emits the oldest tracked segment without re-tracking it.
func (pcb *tcpPCB) retransmit(u *unackedSeg, flags byte) {
	h := pcb.host
	th := layers.TCP{
		SrcPort: pcb.tuple.lport,
		DstPort: pcb.tuple.rport,
		Seq:     u.seq,
		Window:  uint16(tcpWindow - min(pcb.rcv.len(), tcpWindow)),
		Flags:   flags,
	}
	if pcb.state != stSynSent {
		th.Ack = pcb.rcvNxt
	}
	data := pcb.snd.bytes()[:u.n] // the oldest segment's bytes lead the queue
	m := pcb.owner.pool.FromBytes(data)
	mm, hdr := m.Prepend(layers.TCPMinLen)
	th.Encode(hdr, data, h.ip, pcb.tuple.raddr)
	pcb.owner.ipOutput(mm, layers.ProtoTCP, pcb.tuple.raddr)
}
