package dns

import (
	"fmt"
	"slices"
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

	// pending holds the outstanding lookups in issue order.
	pending []*Lookup
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
		RetryInterval: 1.0,
		MaxAttempts:   3,
	}, nil
}

// Resolve starts a lookup; pump the network and call Poll/Tick until
// Done.
func (r *Resolver) Resolve(name string) *Lookup {
	r.nextID++
	lk := &Lookup{Name: name, id: r.nextID}
	if r.sendQuery(lk) {
		r.pending = append(r.pending, lk)
	}
	return lk
}

// sendQuery (re)transmits lk's query. A name that cannot be encoded
// finishes lk with the error and reports false.
func (r *Resolver) sendQuery(lk *Lookup) bool {
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
		return false
	}
	lk.attempts++
	lk.deadline = r.host.Now() + r.RetryInterval
	r.sock.SendTo(r.server, Port, b)
	return true
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
		i := slices.IndexFunc(r.pending, func(lk *Lookup) bool { return lk.id == m.ID })
		if i < 0 {
			continue // late or spoofed response
		}
		lk := r.pending[i]
		r.pending = slices.Delete(r.pending, i, i+1)
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

// Tick retries overdue queries, in issue order, and fails exhausted
// ones.
func (r *Resolver) Tick() {
	now := r.host.Now()
	live := r.pending[:0]
	for _, lk := range r.pending {
		if now >= lk.deadline {
			if lk.attempts >= r.MaxAttempts {
				lk.Done = true
				lk.Err = fmt.Errorf("dns: %s: timeout after %d attempts", lk.Name, lk.attempts)
				r.Timeouts++
				continue
			}
			r.Retries++
			if !r.sendQuery(lk) {
				continue
			}
		}
		live = append(live, lk)
	}
	clear(r.pending[len(live):])
	r.pending = live
}

// Outstanding reports in-flight lookups.
func (r *Resolver) Outstanding() int { return len(r.pending) }
