// Package httpd is a tiny HTTP/0.9-flavoured request/response server and
// client over the netstack's TCP — the paper's conclusion names WWW
// servers ("where the data transfer unit is 512 bytes or less in most
// circumstances") as a surprise beneficiary of LDLP. Requests are one
// CRLF-terminated line ("GET /path"); responses are a status line, a
// Length: header and the body.
//
// Unlike a toy that assumes one request per TCP segment, this package
// frames the byte stream properly: requests split across segments (or
// several requests coalesced into one) are handled by per-connection
// buffers.
package httpd

import (
	"bytes"
	"slices"
	"strconv"

	"ldlp/internal/netstack"
)

// Handler produces a response body for a path; ok=false yields a 404.
type Handler func(path string) (body string, ok bool)

// The status lines a Server sends; a Client that receives one hands
// back the constant, so Response.Status costs no allocation.
const (
	statusOK         = "200 OK"
	statusNotFound   = "404 Not Found"
	statusBadRequest = "400 Bad Request"
)

// Server serves requests on an accepting listener.
type Server struct {
	listener *netstack.TCPListener
	handler  Handler
	conns    []*serverConn
	wire     []byte // the response being built; Send copies it out

	// Requests/Responses/NotFound/BadRequests count traffic.
	Requests, Responses, NotFound, BadRequests int64
}

type serverConn struct {
	sock *netstack.TCPSock
	buf  []byte // received bytes not yet parsed; storage kept across Polls
}

// NewServer starts listening on the host's port with the given handler.
func NewServer(h *netstack.Host, port uint16, handler Handler) (*Server, error) {
	l, err := h.ListenTCP(port)
	if err != nil {
		return nil, err
	}
	return &Server{listener: l, handler: handler}, nil
}

// Poll accepts new connections and serves complete requests. Call after
// pumping the network.
func (s *Server) Poll() {
	for {
		sock := s.listener.Accept()
		if sock == nil {
			break
		}
		s.conns = append(s.conns, &serverConn{sock: sock})
	}
	for _, c := range s.conns {
		c.buf = fill(c.buf, c.sock)
		done := 0
		for {
			line, n, ok := takeLine(c.buf[done:])
			if !ok {
				break
			}
			done += n
			s.serve(c, line)
		}
		c.buf = c.buf[:copy(c.buf, c.buf[done:])] // slide the unparsed tail down
	}
}

// fill moves everything the socket has buffered onto the end of buf,
// read straight into buf's spare capacity.
func fill(buf []byte, sock *netstack.TCPSock) []byte {
	buf = slices.Grow(buf, sock.Buffered())
	return buf[:len(buf)+sock.Recv(buf[len(buf):cap(buf)])]
}

// takeLine finds one CRLF (or bare LF) terminated line at the front of
// buf: the line, a view into buf without its terminator, and the n bytes
// it occupies terminator included.
func takeLine(buf []byte) (line []byte, n int, ok bool) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return nil, 0, false
	}
	end := i
	if end > 0 && buf[end-1] == '\r' {
		end--
	}
	return buf[:end], i + 1, true
}

// field splits the first blank-separated field off b. Fields split on
// the ASCII blanks (space, \t, \n, \v, \f, \r), as strings.Fields
// splits ASCII input; unlike strings.Fields, U+0085, U+00A0 and the
// other non-ASCII spaces are field bytes, not separators.
func field(b []byte) (f, rest []byte) {
	blank := func(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }
	i := 0
	for i < len(b) && blank(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !blank(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// serve answers one request line, parsed where it lies in the
// connection's buffer; the path handed to the handler is the one copy.
func (s *Server) serve(c *serverConn, line []byte) {
	s.Requests++
	method, rest := field(line)
	path, _ := field(rest)
	status, body := statusOK, ""
	if len(path) == 0 || string(method) != "GET" {
		s.BadRequests++
		status = statusBadRequest
	} else if b, ok := s.handler(string(path)); ok {
		s.Responses++
		body = b
	} else {
		s.NotFound++
		status = statusNotFound
	}
	s.wire = append(append(s.wire[:0], status...), "\r\nLength: "...)
	s.wire = append(strconv.AppendInt(s.wire, int64(len(body)), 10), "\r\n"...)
	s.wire = append(s.wire, body...)
	c.sock.Send(s.wire)
}

// Client issues sequential GETs over one connection.
type Client struct {
	sock *netstack.TCPSock
	buf  []byte // received bytes not yet parsed; storage kept across Polls
	wire []byte // the request being built; Send copies it out

	// Done responses are queued here in request order; those before
	// next have been popped.
	responses []Response
	next      int
}

// Response is one parsed response. Its strings are the caller's: they
// do not alias the connection's buffer.
type Response struct {
	Status string
	Body   string
}

// Dial connects a client to the server.
func Dial(h *netstack.Host, server *netstack.Host, port uint16) *Client {
	return &Client{sock: h.DialTCP(server.IP(), port)}
}

// Connected reports whether the TCP handshake has completed.
func (c *Client) Connected() bool { return c.sock.Established() }

// Get sends one request (responses arrive as the network is pumped).
func (c *Client) Get(path string) {
	c.wire = append(append(append(c.wire[:0], "GET "...), path...), "\r\n"...)
	c.sock.Send(c.wire)
}

// Poll consumes arrived bytes and parses complete responses.
func (c *Client) Poll() {
	c.buf = fill(c.buf, c.sock)
	done := 0
	for {
		resp, n, ok := parseResponse(c.buf[done:])
		if !ok {
			break
		}
		done += n
		c.responses = append(c.responses, resp)
	}
	c.buf = c.buf[:copy(c.buf, c.buf[done:])] // slide the unparsed tail down
}

// Next pops the next complete response.
func (c *Client) Next() (Response, bool) {
	if c.next == len(c.responses) {
		return Response{}, false
	}
	r := c.responses[c.next]
	c.responses[c.next] = Response{} // the queue must not pin a popped body
	if c.next++; c.next == len(c.responses) {
		c.responses, c.next = c.responses[:0], 0
	}
	return r, true
}

// parseResponse parses "STATUS\r\nLength: N\r\n<N body bytes>" at the
// front of buf and reports the bytes it occupies; ok is false, and
// nothing is consumed, until the whole response has arrived.
func parseResponse(buf []byte) (r Response, n int, ok bool) {
	status, n, ok := takeLine(buf)
	if !ok {
		return Response{}, 0, false
	}
	lenLine, m, ok := takeLine(buf[n:])
	size, found := bytes.CutPrefix(lenLine, []byte("Length: "))
	if !ok || !found {
		return Response{}, 0, false
	}
	n += m
	bodyLen, err := strconv.Atoi(string(size))
	if err != nil || bodyLen < 0 || len(buf)-n < bodyLen {
		return Response{}, 0, false
	}
	body := string(buf[n : n+bodyLen])
	for _, known := range [...]string{statusOK, statusNotFound, statusBadRequest} {
		if string(status) == known {
			return Response{known, body}, n + bodyLen, true
		}
	}
	return Response{string(status), body}, n + bodyLen, true
}
