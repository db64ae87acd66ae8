// Package rpc implements a compact Sun-RPC-style request/reply protocol
// over the netstack's UDP, plus an NFS-lite file service on top of it.
// The paper's §1 lists NFS among its motivating small-message protocols:
// "all except two messages in NFS" are signalling-sized, and an NFS
// server's working set (RPC dispatch + XDR-ish decode + file service +
// UDP/IP/driver below it) is exactly the kind of multi-layer code footprint
// LDLP batches for.
//
// The subset: 32-bit XID matching, call/reply discrimination, program/
// procedure dispatch, accept-status errors, client retry on a timer and —
// the classic mechanism — a server-side duplicate-request cache so
// retransmitted non-idempotent calls (NFS WRITE) are answered from the
// cache instead of re-executed.
//
// A round trip allocates only what the caller keeps: the args, the Pending
// and a reply too large for the Pending's own buffer. The server builds
// replies by appending (see Handler) and recycles its cache's buffers.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ldlp/internal/layers"
	"ldlp/internal/netstack"
)

// Message types.
const (
	msgCall  = 0
	msgReply = 1
)

// Accept status values (after RFC 5531's accept_stat).
const (
	StatusOK          = 0
	StatusProgUnavail = 1
	StatusProcUnavail = 2
	StatusGarbageArgs = 3
	StatusSystemErr   = 5
)

// Header layout: xid(4) type(4) prog(4) proc(4) status(4) payload...
const headerLen = 20

// Errors.
var (
	ErrTruncated = errors.New("rpc: truncated message")
	ErrNotReply  = errors.New("rpc: not a reply")
)

type message struct {
	xid     uint32
	typ     uint32
	prog    uint32
	proc    uint32
	status  uint32
	payload []byte
}

// appendHeader appends a message header to b.
func appendHeader(b []byte, xid, typ, prog, proc, status uint32) []byte {
	for _, v := range [...]uint32{xid, typ, prog, proc, status} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// decodeMessage parses b in place: the returned message's payload
// aliases b and lives exactly as long as b does.
func decodeMessage(b []byte) (message, error) {
	if len(b) < headerLen {
		return message{}, fmt.Errorf("%w (%d bytes)", ErrTruncated, len(b))
	}
	be := binary.BigEndian
	m := message{
		xid:     be.Uint32(b[0:4]),
		typ:     be.Uint32(b[4:8]),
		prog:    be.Uint32(b[8:12]),
		proc:    be.Uint32(b[12:16]),
		status:  be.Uint32(b[16:20]),
		payload: b[headerLen:],
	}
	if m.typ != msgCall && m.typ != msgReply {
		return message{}, fmt.Errorf("rpc: bad message type %d", m.typ)
	}
	return m, nil
}

// Handler executes one procedure: it decodes args and appends its result
// to reply, returning the extended slice (append may move it), or an
// error, which maps to StatusSystemErr or StatusGarbageArgs. reply
// already holds the reply header and belongs to the Server, which reuses
// it for the next call: a handler must not keep it. args aliases the
// received datagram (netstack.Datagram's lifetime: gone at the next
// pump), so a handler that keeps any of it must copy it.
type Handler func(reply, args []byte) ([]byte, error)

type procKey struct {
	prog, proc uint32
}

// dupKey identifies a client request for the duplicate-request cache.
type dupKey struct {
	client layers.IPAddr
	port   uint16
	xid    uint32
}

// Server dispatches calls to registered procedures.
type Server struct {
	sock  *netstack.UDPSock
	procs map[procKey]Handler
	// scratch is where each reply is built, header then result.
	scratch []byte

	// Duplicate-request cache: retransmitted calls are answered from
	// here, never re-executed — what makes retrying WRITE safe.
	dupCache map[dupKey][]byte
	// dupRing holds the cached keys in arrival order; once it has
	// DupCacheSize of them, dupNext is the oldest, overwritten next.
	dupRing []dupKey
	dupNext int
	// DupCacheSize bounds the cache (FIFO eviction). Set it before the
	// first call is served; <= 0 disables the cache.
	DupCacheSize int

	// Calls/Duplicates/Errors count server activity.
	Calls, Duplicates, Errors int64
}

// NewServer binds an RPC server to the host's port.
func NewServer(h *netstack.Host, port uint16) (*Server, error) {
	sock, err := h.UDPSocket(port)
	if err != nil {
		return nil, err
	}
	return &Server{
		sock:         sock,
		procs:        make(map[procKey]Handler),
		dupCache:     make(map[dupKey][]byte),
		DupCacheSize: 128,
	}, nil
}

// Register installs a procedure handler.
func (s *Server) Register(prog, proc uint32, h Handler) {
	s.procs[procKey{prog, proc}] = h
}

// Poll serves every pending call.
func (s *Server) Poll() {
	for {
		dg, ok := s.sock.Recv()
		if !ok {
			return
		}
		call, err := decodeMessage(dg.Data)
		if err != nil || call.typ != msgCall {
			s.Errors++
			continue
		}
		s.Calls++
		key := dupKey{client: dg.Src, port: dg.SrcPort, xid: call.xid}
		if cached, dup := s.dupCache[key]; dup {
			s.Duplicates++
			s.sock.SendTo(dg.Src, dg.SrcPort, cached)
			continue
		}
		wire := appendHeader(s.scratch[:0], call.xid, msgReply, call.prog, call.proc, StatusOK)
		status := uint32(StatusOK)
		if h, ok := s.procs[procKey{call.prog, call.proc}]; !ok {
			if s.hasProg(call.prog) {
				status = StatusProcUnavail
			} else {
				status = StatusProgUnavail
			}
		} else if out, err := h(wire, call.payload); err != nil {
			if errors.Is(err, ErrGarbageArgs) {
				status = StatusGarbageArgs
			} else {
				status = StatusSystemErr
			}
		} else {
			wire = out
		}
		binary.BigEndian.PutUint32(wire[16:headerLen], status)
		s.scratch = wire[:0]
		s.remember(key, wire)
		s.sock.SendTo(dg.Src, dg.SrcPort, wire)
	}
}

// ErrGarbageArgs is returned by handlers that cannot decode their args.
var ErrGarbageArgs = errors.New("rpc: garbage arguments")

func (s *Server) hasProg(prog uint32) bool {
	//lint:ignore determinism an existence check: the answer is the same in any order
	for k := range s.procs {
		if k.prog == prog {
			return true
		}
	}
	return false
}

// remember caches a copy of the reply to a call Poll has just found
// absent, evicting the oldest entry once DupCacheSize are held. The copy
// goes into the evicted buffer if that is 1–2× the size needed, else into
// an exact-size one, so the cache holds no more than its replies take.
func (s *Server) remember(key dupKey, wire []byte) {
	if s.DupCacheSize <= 0 {
		return
	}
	var buf []byte
	if len(s.dupRing) < s.DupCacheSize {
		s.dupRing = append(s.dupRing, key)
	} else {
		old := s.dupRing[s.dupNext]
		buf = s.dupCache[old]
		delete(s.dupCache, old)
		s.dupRing[s.dupNext] = key
		s.dupNext = (s.dupNext + 1) % len(s.dupRing)
	}
	if cap(buf) < len(wire) || cap(buf) > 2*len(wire) {
		buf = make([]byte, 0, len(wire))
	}
	s.dupCache[key] = append(buf[:0], wire...)
}

// Pending is one in-flight (or finished) call.
type Pending struct {
	// Done reports completion; then Status and Reply (or Err) are valid.
	// Reply is the caller's own copy.
	Done   bool
	Status uint32
	Reply  []byte
	Err    error

	xid uint32
	// wire is the encoded call, built once and re-sent as is on every
	// retry — same XID, same bytes.
	wire     []byte
	deadline float64
	attempts int
	// inline holds wire while the call is outstanding and then Reply, if
	// each fits: a GETATTR, LOOKUP or READ call; a GETATTR or LOOKUP reply.
	inline [32]byte
}

// Client issues calls toward one server.
type Client struct {
	host   *netstack.Host
	sock   *netstack.UDPSock
	server layers.IPAddr
	port   uint16
	nextX  uint32

	// pending holds the outstanding calls in xid order.
	pending []*Pending

	// RetryInterval and MaxAttempts tune persistence; retransmissions
	// reuse the same XID, which is what exercises the server's duplicate
	// cache.
	RetryInterval float64
	MaxAttempts   int
	// Retries/Timeouts count recovery activity.
	Retries, Timeouts int64
}

// NewClient binds a client socket aimed at server:port.
func NewClient(h *netstack.Host, localPort uint16, server layers.IPAddr, port uint16) (*Client, error) {
	sock, err := h.UDPSocket(localPort)
	if err != nil {
		return nil, err
	}
	return &Client{
		host: h, sock: sock, server: server, port: port,
		RetryInterval: 0.5,
		MaxAttempts:   3,
	}, nil
}

// Call starts one RPC; pump the network and Poll/Tick until Done. args
// is copied into the call's wire form before Call returns.
func (c *Client) Call(prog, proc uint32, args []byte) *Pending {
	c.nextX++
	p := &Pending{xid: c.nextX}
	p.wire = append(appendHeader(p.inline[:0], p.xid, msgCall, prog, proc, 0), args...)
	c.pending = append(c.pending, p)
	c.transmit(p)
	return p
}

func (c *Client) transmit(p *Pending) {
	p.attempts++
	p.deadline = c.host.Now() + c.RetryInterval
	c.sock.SendTo(c.server, c.port, p.wire)
}

// Poll consumes replies.
func (c *Client) Poll() {
	for {
		dg, ok := c.sock.Recv()
		if !ok {
			return
		}
		m, err := decodeMessage(dg.Data)
		if err != nil || m.typ != msgReply {
			continue
		}
		i := slices.IndexFunc(c.pending, func(p *Pending) bool { return p.xid == m.xid })
		if i < 0 {
			continue // late reply after a retry already completed
		}
		p := c.pending[i]
		c.pending = slices.Delete(c.pending, i, i+1)
		p.Done = true
		p.Status = m.status
		if m.status == StatusOK {
			// The one copy of the payload: m aliases the socket's slot.
			p.Reply = append(p.inline[:0], m.payload...)
		} else {
			p.Err = fmt.Errorf("rpc: status %d", m.status)
		}
	}
}

// Tick retries overdue calls (same XID), in xid order, and fails
// exhausted ones.
func (c *Client) Tick() {
	now := c.host.Now()
	live := c.pending[:0]
	for _, p := range c.pending {
		if now >= p.deadline {
			if p.attempts >= c.MaxAttempts {
				p.Done = true
				p.Err = fmt.Errorf("rpc: xid %d timed out after %d attempts", p.xid, p.attempts)
				c.Timeouts++
				continue
			}
			c.Retries++
			c.transmit(p)
		}
		live = append(live, p)
	}
	clear(c.pending[len(live):])
	c.pending = live
}

// Outstanding reports in-flight calls.
func (c *Client) Outstanding() int { return len(c.pending) }
