package httpd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

var (
	ipSrv = layers.IPAddr{10, 11, 0, 1}
	ipCli = layers.IPAddr{10, 11, 0, 2}
)

func site(path string) (string, bool) {
	pages := map[string]string{
		"/":      "home sweet home",
		"/paper": "Speeding up Protocols for Small Messages",
	}
	body, ok := pages[path]
	return body, ok
}

func deploy(t testing.TB, d core.Discipline) (*netstack.Net, *Server, *Client) {
	return deployHandler(t, d, site)
}

func deployHandler(t testing.TB, d core.Discipline, h Handler) (*netstack.Net, *Server, *Client) {
	t.Helper()
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("www", ipSrv, netstack.DefaultOptions(d))
	hc := n.AddHost("browser", ipCli, netstack.DefaultOptions(d))
	srv, err := NewServer(hs, 80, h)
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(hc, hs, 80)
	n.RunUntilIdle()
	if !cli.Connected() {
		t.Fatal("handshake failed")
	}
	return n, srv, cli
}

func pump(n *netstack.Net, srv *Server, clients ...*Client) {
	for i := 0; i < 8; i++ {
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		for _, c := range clients {
			c.Poll()
		}
	}
	n.Tick(0.01) // flush delayed ACKs
}

func TestGetRoundTrip(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		n, srv, cli := deploy(t, d)
		cli.Get("/paper")
		pump(n, srv, cli)
		r, ok := cli.Next()
		if !ok {
			t.Fatalf("[%v] no response", d)
		}
		if r.Status != "200 OK" || !strings.Contains(r.Body, "Small Messages") {
			t.Errorf("[%v] response = %+v", d, r)
		}
	}
}

func Test404(t *testing.T) {
	n, srv, cli := deploy(t, core.Conventional)
	cli.Get("/missing")
	pump(n, srv, cli)
	r, ok := cli.Next()
	if !ok || r.Status != "404 Not Found" || r.Body != "" {
		t.Errorf("response = %+v ok=%v", r, ok)
	}
	if srv.NotFound != 1 {
		t.Errorf("NotFound = %d", srv.NotFound)
	}
}

func TestBadRequest(t *testing.T) {
	n, srv, cli := deploy(t, core.Conventional)
	cli.sock.Send([]byte("BREW /coffee\r\n"))
	pump(n, srv, cli)
	r, ok := cli.Next()
	if !ok || r.Status != "400 Bad Request" {
		t.Errorf("response = %+v ok=%v", r, ok)
	}
	if srv.BadRequests != 1 {
		t.Errorf("BadRequests = %d", srv.BadRequests)
	}
}

func TestPipelinedRequestsOneSegment(t *testing.T) {
	// Several requests coalesced into one segment must each be answered,
	// in order.
	n, srv, cli := deploy(t, core.LDLP)
	cli.sock.Send([]byte("GET /\r\nGET /paper\r\nGET /\r\n"))
	pump(n, srv, cli)
	var bodies []string
	for {
		r, ok := cli.Next()
		if !ok {
			break
		}
		bodies = append(bodies, r.Body)
	}
	if len(bodies) != 3 {
		t.Fatalf("responses = %d, want 3", len(bodies))
	}
	if bodies[0] != "home sweet home" || !strings.Contains(bodies[1], "Speeding") || bodies[2] != bodies[0] {
		t.Errorf("bodies = %q", bodies)
	}
}

func TestRequestSplitAcrossSegments(t *testing.T) {
	// A request arriving byte-dribbled across many segments must still be
	// framed correctly — the case naive per-segment parsing gets wrong.
	n, srv, cli := deploy(t, core.Conventional)
	for _, chunk := range []string{"GE", "T /pa", "per", "\r", "\n"} {
		cli.sock.Send([]byte(chunk))
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
	}
	pump(n, srv, cli)
	r, ok := cli.Next()
	if !ok || r.Status != "200 OK" {
		t.Fatalf("dribbled request: %+v ok=%v", r, ok)
	}
	if srv.Requests != 1 {
		t.Errorf("server saw %d requests, want 1", srv.Requests)
	}
}

func TestManyClientsBurst(t *testing.T) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("www", ipSrv, netstack.DefaultOptions(core.LDLP))
	srv, err := NewServer(hs, 80, site)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 12; i++ {
		hc := n.AddHost("c", layers.IPAddr{10, 11, 1, byte(i + 1)}, netstack.DefaultOptions(core.LDLP))
		clients = append(clients, Dial(hc, hs, 80))
	}
	n.RunUntilIdle()
	srv.Poll() // accept all
	for _, c := range clients {
		c.Get("/")
		c.Get("/paper")
	}
	pump(n, srv, clients...)
	pump(n, srv, clients...)
	for i, c := range clients {
		got := 0
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			got++
		}
		if got != 2 {
			t.Errorf("client %d received %d responses, want 2", i, got)
		}
	}
	if srv.Responses != 24 {
		t.Errorf("server responses = %d, want 24", srv.Responses)
	}
}

func TestTakeLine(t *testing.T) {
	for _, tc := range []struct {
		in, line, rest string
		ok             bool
	}{
		{"abc\r\ndef", "abc", "def", true},
		{"abc\ndef", "abc", "def", true},
		{"abc", "", "abc", false},
		{"\r\nx", "", "x", true},
	} {
		line, n, ok := takeLine([]byte(tc.in))
		if ok != tc.ok || string(line) != tc.line || tc.in[n:] != tc.rest {
			t.Errorf("takeLine(%q) = %q/%q/%v", tc.in, line, tc.in[n:], ok)
		}
	}
}

func TestParseResponseIncomplete(t *testing.T) {
	// Partial responses must not be consumed.
	full := "200 OK\r\nLength: 5\r\nhello"
	for cut := 0; cut < len(full); cut++ {
		if _, n, ok := parseResponse([]byte(full[:cut])); ok || n != 0 {
			t.Errorf("parse of %d-byte prefix: ok=%v, consumed %d", cut, ok, n)
		}
	}
	r, n, ok := parseResponse([]byte(full + "tail"))
	if !ok || r.Status != "200 OK" || r.Body != "hello" || (full + "tail")[n:] != "tail" {
		t.Errorf("full parse: %+v consumed %d %v", r, n, ok)
	}
}

// The request line is split where it lies, on ASCII blanks. Every row
// is also what strings.Fields — the splitter this replaced — answers,
// except the last: a no-break space is now part of a field, not a
// separator.
func TestRequestLineSplit(t *testing.T) {
	for _, tc := range []struct {
		wire   string // one terminated line
		status string
		path   string // what the handler was asked for, "" if never called
	}{
		{"GET /x\r\n", "404 Not Found", "/x"},
		{"  \t GET /x \t \r\n", "404 Not Found", "/x"},
		{"GET\t/x\n", "404 Not Found", "/x"},
		{"GET\v\f/x\r\r\n", "404 Not Found", "/x"},
		{"GET  /x  junk\r\n", "404 Not Found", "/x"},
		{"GET /\r\n", "200 OK", "/"},
		{"GET\r\n", "400 Bad Request", ""},
		{"GET   \r\n", "400 Bad Request", ""},
		{"get /x\r\n", "400 Bad Request", ""},
		{"GETS /x\r\n", "400 Bad Request", ""},
		{" \r\n", "400 Bad Request", ""},
		{"\n", "400 Bad Request", ""},
		{"\r\n", "400 Bad Request", ""},
		{"GET\u00a0/x\r\n", "400 Bad Request", ""},
	} {
		asked := ""
		n, srv, cli := deployHandler(t, core.Conventional, func(path string) (string, bool) {
			asked = path
			return site(path)
		})
		cli.sock.Send([]byte(tc.wire))
		pump(n, srv, cli)
		r, ok := cli.Next()
		if !ok || r.Status != tc.status || asked != tc.path || srv.Requests != 1 {
			t.Errorf("%q: status %q (ok=%v), handler asked %q, %d requests; want %q, %q, 1",
				tc.wire, r.Status, ok, asked, srv.Requests, tc.status, tc.path)
		}
		if f := strings.Fields(strings.TrimRight(tc.wire, "\r\n")); !strings.Contains(tc.wire, "\u00a0") {
			was := ""
			if len(f) >= 2 && f[0] == "GET" {
				was = f[1]
			}
			if was != tc.path {
				t.Errorf("%q: strings.Fields asked the handler for %q, the table says %q", tc.wire, was, tc.path)
			}
		}
	}
}

// One GET and its response cost two allocations, both fixed by the
// exported API: the path string handed to the Handler and the
// Response.Body handed to the caller.
func TestHTTPGetAllocBudget(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		n, srv, cli := deploy(t, d)
		bad := ""
		cycle := func() {
			cli.Get("/paper")
			n.RunUntilIdle()
			srv.Poll()
			n.RunUntilIdle()
			cli.Poll()
			if r, ok := cli.Next(); !ok || r.Status != "200 OK" || !strings.Contains(r.Body, "Small Messages") {
				bad = fmt.Sprintf("ok=%v %+v", ok, r)
			}
		}
		for i := 0; i < 64; i++ { // warm pools, queues, both ends' buffers
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 2 {
			t.Errorf("[%v] %v allocations per request + response, want at most 2", d, allocs)
		}
		if bad != "" {
			t.Errorf("[%v] wrong response: %s", d, bad)
		}
	}
}

// Arbitrary bytes, cut at arbitrary points, through real TCP into a
// Server: every LF-terminated line is one request and gets exactly one
// response the client's parser accepts, and nothing else comes back.
func FuzzHTTPStream(f *testing.F) {
	f.Add([]byte("GET /\r\n"), []byte{3})
	f.Add([]byte("GET /paper\r\nGET /nope\nBREW\n\n\r\nGET /pa"), []byte{1, 7, 2})
	f.Add([]byte("GET \xc2\xa0/ \r\n\r\r\n \t\n"), []byte{0})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		if len(stream) > 4096 {
			t.Skip("4 KB of requests already answers with more than a window of responses")
		}
		lines := int64(bytes.Count(stream, []byte("\n")))
		n, srv, cli := deploy(t, core.LDLP)
		for i := 0; len(stream) > 0; i++ {
			k := len(stream)
			if len(cuts) > 0 {
				k = min(k, 1+int(cuts[i%len(cuts)]))
			}
			cli.sock.Send(stream[:k])
			stream = stream[k:]
			n.RunUntilIdle()
			srv.Poll()
			n.RunUntilIdle()
			cli.Poll()
		}
		pump(n, srv, cli)
		pump(n, srv, cli)
		if srv.Requests != lines || srv.Responses+srv.NotFound+srv.BadRequests != lines {
			t.Fatalf("%d lines fed: %d requests, %d + %d + %d answers", lines, srv.Requests, srv.Responses, srv.NotFound, srv.BadRequests)
		}
		var ok, notFound, bad int64
		for {
			r, more := cli.Next()
			if !more {
				break
			}
			switch r.Status {
			case "200 OK":
				ok++
			case "404 Not Found":
				notFound++
			case "400 Bad Request":
				bad++
			default:
				t.Fatalf("response with status %q", r.Status)
			}
		}
		if ok != srv.Responses || notFound != srv.NotFound || bad != srv.BadRequests {
			t.Fatalf("client parsed %d/%d/%d responses, server sent %d/%d/%d", ok, notFound, bad, srv.Responses, srv.NotFound, srv.BadRequests)
		}
		if len(cli.buf) != 0 {
			t.Fatalf("%d bytes from the server that are not a response: %q", len(cli.buf), cli.buf)
		}
	})
}

// parseResponse on arbitrary bytes: it consumes nothing unless a whole
// response is there, never more than it was given, and never a
// response whose last byte had not arrived.
func FuzzParseResponse(f *testing.F) {
	f.Add([]byte("200 OK\r\nLength: 5\r\nhellotail"))
	f.Add([]byte("404 Not Found\nLength: 0\n"))
	f.Add([]byte("x\r\nLength: -1\r\n"))
	f.Add([]byte("x\r\nLength: 99999999999999999999\r\n"))
	f.Add([]byte("\nLength: +2\nab"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, n, ok := parseResponse(in)
		if !ok {
			if n != 0 {
				t.Fatalf("consumed %d bytes of an incomplete response", n)
			}
			return
		}
		if n <= 0 || n > len(in) {
			t.Fatalf("consumed %d of %d bytes", n, len(in))
		}
		if !bytes.HasPrefix(in, []byte(r.Status)) || !bytes.HasSuffix(in[:n], []byte(r.Body)) {
			t.Fatalf("%+v is not what %q holds", r, in[:n])
		}
		if _, m, short := parseResponse(in[:n-1]); short {
			t.Fatalf("the response less its last byte parsed too (%d bytes)", m)
		}
		if r2, n2, ok2 := parseResponse(in[:n]); !ok2 || n2 != n || r2 != r {
			t.Fatalf("the consumed bytes alone parse as %+v (%d, %v), not %+v", r2, n2, ok2, r)
		}
	})
}

func BenchmarkRequestResponse(b *testing.B) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("www", ipSrv, netstack.DefaultOptions(core.Conventional))
	hc := n.AddHost("c", ipCli, netstack.DefaultOptions(core.Conventional))
	srv, _ := NewServer(hs, 80, site)
	cli := Dial(hc, hs, 80)
	n.RunUntilIdle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Get("/")
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		cli.Poll()
		if _, ok := cli.Next(); !ok {
			b.Fatal(fmt.Sprintf("no response at i=%d", i))
		}
	}
}
