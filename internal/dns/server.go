package dns

import (
	"fmt"
	"strings"

	"ldlp/internal/layers"
	"ldlp/internal/netstack"
)

// Port is the DNS port.
const Port = 53

// Server is an authoritative DNS server over the netstack: one zone of
// A records, answering from its table, NXDOMAIN otherwise. Serving is
// driven by Poll (single-threaded, like everything on the netstack).
type Server struct {
	sock *netstack.UDPSock
	zone map[string]layers.IPAddr
	// Queries/Answered/NXDomain/FormErr count traffic.
	Queries, Answered, NXDomain, FormErr int64
}

// NewServer binds an authoritative server on the host.
func NewServer(h *netstack.Host) (*Server, error) {
	sock, err := h.UDPSocket(Port)
	if err != nil {
		return nil, err
	}
	return &Server{sock: sock, zone: make(map[string]layers.IPAddr)}, nil
}

// Add publishes an A record.
func (s *Server) Add(name string, addr layers.IPAddr) {
	s.zone[canonical(name)] = addr
}

func canonical(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// Poll answers every pending query.
func (s *Server) Poll() {
	for {
		dg, ok := s.sock.Recv()
		if !ok {
			return
		}
		s.Queries++
		q, err := Decode(dg.Data) // copies out: names become strings, nothing aliases dg.Data
		reply := &Message{Flags: FlagQR | FlagAA}
		if err != nil || len(q.Questions) == 0 {
			s.FormErr++
			if err == nil {
				reply.ID = q.ID
			}
			reply.Flags |= RCodeFormErr
		} else {
			reply.ID = q.ID
			reply.Questions = q.Questions
			if q.Flags&FlagRD != 0 {
				reply.Flags |= FlagRD | FlagRA
			}
			question := q.Questions[0]
			addr, found := s.zone[canonical(question.Name)]
			switch {
			case question.Type != TypeA || question.Class != ClassIN:
				reply.Flags |= RCodeNXDomain
				s.NXDomain++
			case found:
				reply.Answers = []RR{{
					Name: question.Name, Type: TypeA, Class: ClassIN,
					TTL: 300, A: addr,
				}}
				s.Answered++
			default:
				reply.Flags |= RCodeNXDomain
				s.NXDomain++
			}
		}
		out, err := reply.Encode()
		if err != nil {
			continue // unencodable reply (bad name echoed back): drop
		}
		s.sock.SendTo(dg.Src, dg.SrcPort, out)
	}
}

// Resolver issues queries and matches responses by ID, retrying on a
// timer like a stub resolver.
type Resolver struct {
	host   *netstack.Host
	sock   *netstack.UDPSock
	server layers.IPAddr
	nextID uint16

	pending map[uint16]*Lookup
	// Retries/Timeouts count recovery activity.
	Retries, Timeouts int64

	// RetryInterval and MaxAttempts tune the stub's persistence.
	RetryInterval float64
	MaxAttempts   int
}

// Lookup is one in-flight (or finished) name resolution.
type Lookup struct {
	Name string
	// Done reports completion; check Err and Addr after.
	Done bool
	Err  error
	Addr layers.IPAddr

	id       uint16
	deadline float64
	attempts int
}

// NewResolver binds a stub resolver on the host, pointed at a server.
func NewResolver(h *netstack.Host, port uint16, server layers.IPAddr) (*Resolver, error) {
	sock, err := h.UDPSocket(port)
	if err != nil {
		return nil, err
	}
	return &Resolver{
		host: h, sock: sock, server: server,
		pending:       make(map[uint16]*Lookup),
		RetryInterval: 1.0,
		MaxAttempts:   3,
	}, nil
}

// Resolve starts a lookup; pump the network and call Poll/Tick until
// Done.
func (r *Resolver) Resolve(name string) *Lookup {
	r.nextID++
	lk := &Lookup{Name: name, id: r.nextID}
	r.pending[lk.id] = lk
	r.sendQuery(lk)
	return lk
}

func (r *Resolver) sendQuery(lk *Lookup) {
	m := &Message{
		ID:    lk.id,
		Flags: FlagRD,
		Questions: []Question{{
			Name: lk.Name, Type: TypeA, Class: ClassIN,
		}},
	}
	b, err := m.Encode()
	if err != nil {
		lk.Done, lk.Err = true, err
		delete(r.pending, lk.id)
		return
	}
	lk.attempts++
	lk.deadline = r.host.Now() + r.RetryInterval
	r.sock.SendTo(r.server, Port, b)
}

// Poll consumes responses.
func (r *Resolver) Poll() {
	for {
		dg, ok := r.sock.Recv()
		if !ok {
			return
		}
		m, err := Decode(dg.Data) // copies out, as in Server.Poll
		if err != nil || !m.Response() {
			continue
		}
		lk, ok := r.pending[m.ID]
		if !ok {
			continue // late or spoofed response
		}
		delete(r.pending, m.ID)
		lk.Done = true
		switch {
		case m.RCode() == RCodeNXDomain:
			lk.Err = fmt.Errorf("dns: %s: no such domain", lk.Name)
		case m.RCode() != RCodeOK:
			lk.Err = fmt.Errorf("dns: %s: rcode %d", lk.Name, m.RCode())
		case len(m.Answers) == 0:
			lk.Err = fmt.Errorf("dns: %s: empty answer", lk.Name)
		default:
			lk.Addr = m.Answers[0].A
		}
	}
}

// Tick retries overdue queries and fails exhausted ones.
func (r *Resolver) Tick() {
	now := r.host.Now()
	for id, lk := range r.pending {
		if now < lk.deadline {
			continue
		}
		if lk.attempts >= r.MaxAttempts {
			lk.Done = true
			lk.Err = fmt.Errorf("dns: %s: timeout after %d attempts", lk.Name, lk.attempts)
			r.Timeouts++
			delete(r.pending, id)
			continue
		}
		r.Retries++
		r.sendQuery(lk)
	}
}

// Outstanding reports in-flight lookups.
func (r *Resolver) Outstanding() int { return len(r.pending) }
