package netstack

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/telemetry"
)

// The socket boundary copies. udpInput copies each payload out of the
// mbuf chain into a slot the socket owns and reuses, so the chain goes
// back to its pool inside the pump and application code never aliases
// pool storage (DESIGN §8, rule 4) — and in steady state nothing is
// allocated, because the slot's buffer from the last lap is refilled in
// place. What the application gets from Recv is a view of that slot,
// valid until the host is next pumped. There is deliberately no lease
// that lends the mbuf itself: the largest datagram any benchmark
// workload carries is 532 B, and a lease adds an ownership state and a
// Release call on every receive to save a copy that costs less than
// that bookkeeping.

// Datagram is one received UDP message. Data is owned by the socket
// that returned it and stays valid until the receiving host is next
// pumped (RunUntilIdle, Tick, Pump); copy it to keep it longer.
type Datagram struct {
	Src     layers.IPAddr
	SrcPort uint16
	Data    []byte
}

// minSlotData is the smallest buffer a socket slot is given: enough for
// a small message, so a slot reallocates only for a larger one.
const minSlotData = 256

// UDPSock is an unconnected datagram socket bound to a local port.
type UDPSock struct {
	host *Host
	port uint16
	// mu guards queue. Unlike TCP, one UDP socket fans in from many
	// remotes, so its datagrams hash to different shards by design —
	// the queue is the declared cross-shard meeting point, and the lock
	// is held only for the append/pop, never across an emit or a send.
	mu sync.Mutex
	// queue[head:] are the buffered datagrams, oldest first. Recv
	// advances head and resets both once the queue drains; udpInput
	// re-extends queue into its own capacity and refills the slot's old
	// Data buffer, so only as many slots as the deepest backlog ever
	// exist and none is allocated twice.
	queue []Datagram
	head  int
	// QueueLimit bounds buffered datagrams (drop-tail beyond it).
	QueueLimit int
	// Dropped counts datagrams discarded at a full queue. Updated with
	// atomic adds — datagrams from different remotes hash to different
	// shard workers — like the host Counters; read while quiescent, or
	// via DroppedCount.
	Dropped int64
}

// DroppedCount reads the queue-drop counter with atomic semantics,
// safe while shard workers are running.
func (s *UDPSock) DroppedCount() int64 { return atomic.LoadInt64(&s.Dropped) }

// UDPSocket binds a datagram socket to port.
func (h *Host) UDPSocket(port uint16) (*UDPSock, error) {
	if _, ok := h.udpSocks[port]; ok {
		return nil, fmt.Errorf("%w: udp %d", ErrPortInUse, port)
	}
	s := &UDPSock{host: h, port: port, QueueLimit: 512}
	h.udpSocks[port] = s
	return s, nil
}

// Close unbinds the socket.
func (s *UDPSock) Close() { delete(s.host.udpSocks, s.port) }

// SendTo transmits one datagram. Pump-side: the frame is built from and
// queued on the pump's transport shard.
//
//ldlp:quiescent
func (s *UDPSock) SendTo(dst layers.IPAddr, port uint16, payload []byte) {
	ts := s.host.pumpShard()
	uh := layers.UDP{SrcPort: s.port, DstPort: port}
	m := ts.pool.FromBytes(payload)
	mm, hdr := m.Prepend(layers.UDPLen)
	uh.Encode(hdr, payload, s.host.ip, dst)
	ts.ipOutput(mm, layers.ProtoUDP, dst)
}

// Recv pops the next datagram, reporting ok=false when the queue is
// empty. The datagram's Data aliases socket-owned memory: it stays
// intact across further Recv and SendTo calls and is overwritten once
// the host is next pumped, so a caller that keeps it must copy it.
func (s *UDPSock) Recv() (Datagram, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == len(s.queue) {
		return Datagram{}, false
	}
	d := s.queue[s.head]
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return d, true
}

// Pending reports queued datagrams.
func (s *UDPSock) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) - s.head
}

// slot returns the queue slot for one more datagram, its Data buffer
// from an earlier lap still attached. Caller holds mu.
//
//ldlp:hotpath
func (s *UDPSock) slot() *Datagram {
	n := len(s.queue)
	if live := n - s.head; n == cap(s.queue) && s.head > 0 && s.head >= live {
		// A reader that never quite drains would walk head off the end
		// of the array. Rotate the live datagrams down over the consumed
		// slots instead — by swapping, so every buffer stays attached to
		// exactly one slot. At least half the array is consumed here,
		// which keeps the move amortised O(1) per datagram.
		for i := s.head; i < n; i++ {
			s.queue[i-s.head], s.queue[i] = s.queue[i], s.queue[i-s.head]
		}
		n -= s.head
		s.queue, s.head = s.queue[:n], 0
	}
	if n < cap(s.queue) {
		s.queue = s.queue[:n+1]
	} else {
		//lint:ignore hotpathalloc amortized growth of a reused slot array; it grows only to the deepest backlog seen
		s.queue = append(s.queue, Datagram{})
	}
	return &s.queue[n]
}

// udpInput is the receive-path UDP layer. The checksum and the socket
// lookup run lock-free; the queue-limit check and the copy into the
// socket's slot take the socket lock, because one socket receives from
// remotes spread across every shard. A full queue drops before copying.
//
//ldlp:hotpath
func (rx *rxPath) udpInput(p *Packet, emit core.Emit[*Packet]) {
	h := rx.h
	buf := p.M.Contiguous()
	n, err := p.UDP.Decode(buf, p.IP.Src, p.IP.Dst)
	if err != nil {
		rx.reject(p, rx.udpin, telemetry.DropBadUDP)
		return
	}
	rx.ts.tally.udpDgrams++
	// The socket map itself only changes while the network is quiescent
	// (UDPSocket/Close are pump-side), so the lookup needs no lock.
	sock, ok := h.udpSocks[p.UDP.DstPort]
	if !ok {
		rx.reject(p, rx.udpin, telemetry.DropNoSocket)
		return
	}
	sock.mu.Lock()
	if len(sock.queue)-sock.head >= sock.QueueLimit {
		sock.mu.Unlock()
		atomic.AddInt64(&sock.Dropped, 1)
		rx.reject(p, rx.udpin, telemetry.DropSockBuffer)
		return
	}
	d := sock.slot()
	d.Src, d.SrcPort = p.IP.Src, p.UDP.SrcPort
	data := buf[n:p.UDP.Length]
	if cap(d.Data) < len(data) {
		// Sized once for a small message rather than regrown byte by
		// byte as a flow's datagrams lengthen.
		//lint:ignore hotpathalloc the slot keeps its buffer across laps; it grows only to the largest datagram the slot has held
		d.Data = make([]byte, max(len(data), minSlotData))
	}
	d.Data = d.Data[:len(data)]
	copy(d.Data, data)
	sock.mu.Unlock()
	emit(rx.sock, p)
}
