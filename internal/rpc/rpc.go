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
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

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

func (m message) encode() []byte {
	b := make([]byte, headerLen+len(m.payload))
	be := binary.BigEndian
	be.PutUint32(b[0:4], m.xid)
	be.PutUint32(b[4:8], m.typ)
	be.PutUint32(b[8:12], m.prog)
	be.PutUint32(b[12:16], m.proc)
	be.PutUint32(b[16:20], m.status)
	copy(b[headerLen:], m.payload)
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

// Handler executes one procedure: decode args from the payload, return
// the reply payload (or an error, which maps to StatusSystemErr). args
// aliases the received datagram (netstack.Datagram's lifetime: gone at
// the next pump), so a handler that keeps any of it must copy it.
type Handler func(args []byte) ([]byte, error)

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
		reply := message{xid: call.xid, typ: msgReply, prog: call.prog, proc: call.proc}
		if h, ok := s.procs[procKey{call.prog, call.proc}]; !ok {
			if s.hasProg(call.prog) {
				reply.status = StatusProcUnavail
			} else {
				reply.status = StatusProgUnavail
			}
		} else if out, err := h(call.payload); err != nil {
			if errors.Is(err, ErrGarbageArgs) {
				reply.status = StatusGarbageArgs
			} else {
				reply.status = StatusSystemErr
			}
		} else {
			reply.payload = out
		}
		wire := reply.encode()
		s.remember(key, wire)
		s.sock.SendTo(dg.Src, dg.SrcPort, wire)
	}
}

// ErrGarbageArgs is returned by handlers that cannot decode their args.
var ErrGarbageArgs = errors.New("rpc: garbage arguments")

func (s *Server) hasProg(prog uint32) bool {
	for k := range s.procs {
		if k.prog == prog {
			return true
		}
	}
	return false
}

// remember caches the reply to a call Poll has just found absent from
// the cache, evicting the oldest entry once DupCacheSize are held.
func (s *Server) remember(key dupKey, wire []byte) {
	if s.DupCacheSize <= 0 {
		return
	}
	if len(s.dupRing) < s.DupCacheSize {
		s.dupRing = append(s.dupRing, key)
	} else {
		delete(s.dupCache, s.dupRing[s.dupNext])
		s.dupRing[s.dupNext] = key
		s.dupNext = (s.dupNext + 1) % len(s.dupRing)
	}
	s.dupCache[key] = wire
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
}

// Client issues calls toward one server.
type Client struct {
	host   *netstack.Host
	sock   *netstack.UDPSock
	server layers.IPAddr
	port   uint16
	nextX  uint32

	pending map[uint32]*Pending

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
		pending:       make(map[uint32]*Pending),
		RetryInterval: 0.5,
		MaxAttempts:   3,
	}, nil
}

// Call starts one RPC; pump the network and Poll/Tick until Done. args
// is copied into the call's wire form before Call returns.
func (c *Client) Call(prog, proc uint32, args []byte) *Pending {
	c.nextX++
	call := message{xid: c.nextX, typ: msgCall, prog: prog, proc: proc, payload: args}
	p := &Pending{xid: c.nextX, wire: call.encode()}
	c.pending[p.xid] = p
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
		p, ok := c.pending[m.xid]
		if !ok {
			continue // late reply after a retry already completed
		}
		delete(c.pending, m.xid)
		p.Done = true
		p.Status = m.status
		if m.status == StatusOK {
			// The one copy of the payload: m aliases the socket's slot.
			p.Reply = append([]byte(nil), m.payload...)
		} else {
			p.Err = fmt.Errorf("rpc: status %d", m.status)
		}
	}
}

// Tick retries overdue calls (same XID) and fails exhausted ones.
func (c *Client) Tick() {
	now := c.host.Now()
	for xid, p := range c.pending {
		if now < p.deadline {
			continue
		}
		if p.attempts >= c.MaxAttempts {
			p.Done = true
			p.Err = fmt.Errorf("rpc: xid %d timed out after %d attempts", p.xid, p.attempts)
			c.Timeouts++
			delete(c.pending, xid)
			continue
		}
		c.Retries++
		c.transmit(p)
	}
}

// Outstanding reports in-flight calls.
func (c *Client) Outstanding() int { return len(c.pending) }
