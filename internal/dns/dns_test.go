package dns

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

func TestNameRoundTrip(t *testing.T) {
	for _, name := range []string{
		"", "localhost", "example.com", "a.very.deep.sub.domain.example.org",
		"trailing.dot.ok.",
	} {
		b, err := encodeName(nil, name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		got, next, err := decodeName(b, 0)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		want := strings.TrimSuffix(name, ".")
		if got != want {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if next != len(b) {
			t.Errorf("%q: next = %d, want %d", name, next, len(b))
		}
	}
}

func TestNameValidation(t *testing.T) {
	if _, err := encodeName(nil, strings.Repeat("a", 64)+".com"); err == nil {
		t.Error("64-byte label should fail")
	}
	long := strings.Repeat("abcdefgh.", 40) + "com"
	if _, err := encodeName(nil, long); err == nil {
		t.Error("over-255-byte name should fail")
	}
	if _, err := encodeName(nil, "double..dot"); err == nil {
		t.Error("empty label should fail")
	}
}

func TestCompressionPointerDecode(t *testing.T) {
	// Hand-built message area: "example.com" at offset 0, then a name that
	// is just a pointer to it, then "www" + pointer.
	var b []byte
	b, _ = encodeName(b, "example.com")
	ptrAt := len(b)
	b = append(b, 0xc0, 0x00) // pointer to offset 0
	wwwAt := len(b)
	b = append(b, 3, 'w', 'w', 'w', 0xc0, 0x00)

	name, next, err := decodeName(b, ptrAt)
	if err != nil || name != "example.com" || next != ptrAt+2 {
		t.Errorf("pointer decode: %q next=%d err=%v", name, next, err)
	}
	name, next, err = decodeName(b, wwwAt)
	if err != nil || name != "www.example.com" || next != wwwAt+6 {
		t.Errorf("label+pointer decode: %q next=%d err=%v", name, next, err)
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// A pointer pointing at itself.
	b := []byte{0xc0, 0x00}
	if _, _, err := decodeName(b, 0); !errors.Is(err, ErrPtrLoop) {
		t.Errorf("self-pointer: %v, want ErrPtrLoop", err)
	}
	// Two pointers pointing at each other.
	b2 := []byte{0xc0, 0x02, 0xc0, 0x00}
	if _, _, err := decodeName(b2, 0); !errors.Is(err, ErrPtrLoop) {
		t.Errorf("pointer cycle: %v, want ErrPtrLoop", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:    0xbeef,
		Flags: FlagQR | FlagAA | FlagRD | FlagRA,
		Questions: []Question{
			{Name: "ftp.example.com", Type: TypeA, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "ftp.example.com", Type: TypeA, Class: ClassIN, TTL: 3600, A: layers.IPAddr{192, 0, 2, 7}},
		},
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Flags != m.Flags {
		t.Errorf("header: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0] != m.Questions[0] {
		t.Errorf("questions: %+v", got.Questions)
	}
	if len(got.Answers) != 1 || got.Answers[0] != m.Answers[0] {
		t.Errorf("answers: %+v", got.Answers)
	}
	if !got.Response() || got.RCode() != RCodeOK {
		t.Error("flag helpers wrong")
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(id uint16, a, b, c uint8, ttl uint32) bool {
		name := fmt.Sprintf("h%d.x%d.example", a, b)
		m := &Message{
			ID: id, Flags: FlagQR,
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
			Answers:   []RR{{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, A: layers.IPAddr{a, b, c, 1}}},
		}
		buf, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		return err == nil && got.ID == id && got.Answers[0].A == m.Answers[0].A &&
			got.Answers[0].TTL == ttl && got.Questions[0].Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		m, err := Decode(data)
		// Either an error or a structurally sane message.
		return err != nil || (m != nil && len(m.Questions) <= 32 && len(m.Answers) <= 128)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncations(t *testing.T) {
	m := &Message{
		ID:        1,
		Questions: []Question{{Name: "a.b", Type: TypeA, Class: ClassIN}},
		Answers:   []RR{{Name: "a.b", Type: TypeA, Class: ClassIN, TTL: 1, A: layers.IPAddr{1, 2, 3, 4}}},
	}
	whole, _ := m.Encode()
	for cut := 0; cut < len(whole); cut++ {
		if _, err := Decode(whole[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// --- end-to-end over the netstack ---

var (
	ipSrv = layers.IPAddr{10, 6, 0, 1}
	ipCli = layers.IPAddr{10, 6, 0, 2}
)

func deploy(t *testing.T, d core.Discipline) (*netstack.Net, *Server, *Resolver) {
	t.Helper()
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("ns", ipSrv, netstack.DefaultOptions(d))
	hc := n.AddHost("stub", ipCli, netstack.DefaultOptions(d))
	srv, err := NewServer(hs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResolver(hc, 3535, ipSrv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Add("www.example.com", layers.IPAddr{192, 0, 2, 80})
	srv.Add("mail.example.com", layers.IPAddr{192, 0, 2, 25})
	return n, srv, res
}

func pumpDNS(n *netstack.Net, srv *Server, res *Resolver) {
	for i := 0; i < 10; i++ {
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		res.Poll()
		if res.Outstanding() == 0 {
			return
		}
	}
}

func TestResolveOverNetstack(t *testing.T) {
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		n, srv, res := deploy(t, d)
		lk := res.Resolve("www.example.com")
		pumpDNS(n, srv, res)
		if !lk.Done || lk.Err != nil {
			t.Fatalf("[%v] lookup: done=%v err=%v", d, lk.Done, lk.Err)
		}
		if lk.Addr != (layers.IPAddr{192, 0, 2, 80}) {
			t.Errorf("[%v] addr = %v", d, lk.Addr)
		}
		if srv.Answered != 1 {
			t.Errorf("[%v] server answered = %d", d, srv.Answered)
		}
		if s := mbuf.PoolStats(); s.InUse != 0 {
			t.Errorf("mbuf leak: %+v", s)
		}
	}
}

func TestNXDomain(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	lk := res.Resolve("nope.example.com")
	pumpDNS(n, srv, res)
	if !lk.Done || lk.Err == nil {
		t.Fatalf("NXDOMAIN lookup: done=%v err=%v", lk.Done, lk.Err)
	}
	if srv.NXDomain != 1 {
		t.Errorf("server NXDomain = %d", srv.NXDomain)
	}
}

func TestCaseInsensitiveZone(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	lk := res.Resolve("WWW.Example.COM")
	pumpDNS(n, srv, res)
	if lk.Err != nil {
		t.Fatalf("case-folded lookup failed: %v", lk.Err)
	}
	_ = srv
}

func TestRetryOnLoss(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	res.RetryInterval = 0.3
	dropped := 0
	n.Loss = func(dst layers.IPAddr, data []byte) bool {
		if dst == ipSrv && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	lk := res.Resolve("www.example.com")
	pumpDNS(n, srv, res)
	if lk.Done {
		t.Fatal("lookup completed despite loss")
	}
	n.Tick(0.35)
	res.Tick()
	pumpDNS(n, srv, res)
	if !lk.Done || lk.Err != nil {
		t.Fatalf("retry failed: done=%v err=%v", lk.Done, lk.Err)
	}
	if res.Retries != 1 {
		t.Errorf("retries = %d, want 1", res.Retries)
	}
}

func TestTimeoutAfterMaxAttempts(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	res.RetryInterval = 0.2
	res.MaxAttempts = 2
	n.Loss = func(dst layers.IPAddr, data []byte) bool { return dst == ipSrv }
	lk := res.Resolve("www.example.com")
	for i := 0; i < 5; i++ {
		n.Tick(0.25)
		res.Tick()
		pumpDNS(n, srv, res)
	}
	if !lk.Done || lk.Err == nil {
		t.Fatalf("black-holed lookup: done=%v err=%v", lk.Done, lk.Err)
	}
	if res.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", res.Timeouts)
	}
}

// Tick retries overdue lookups in issue order, so which retries a seeded
// loss model drops is a function of the seed alone.
func TestTickRetriesInIssueOrder(t *testing.T) {
	const udp = layers.EthernetLen + layers.IPv4MinLen + layers.UDPLen
	for run := 0; run < 20; run++ {
		n, srv, res := deploy(t, core.Conventional)
		var ids []int
		n.Loss = func(dst layers.IPAddr, frame []byte) bool {
			ids = append(ids, int(frame[udp])<<8|int(frame[udp+1]))
			return true // the server never answers
		}
		for i := 0; i < 8; i++ {
			res.Resolve("www.example.com")
		}
		pumpDNS(n, srv, res)
		ids = nil
		n.Tick(res.RetryInterval + 0.05)
		res.Tick()
		pumpDNS(n, srv, res)
		if got := fmt.Sprint(ids); got != "[1 2 3 4 5 6 7 8]" {
			t.Fatalf("resolver %d retried ids %s, want [1 2 3 4 5 6 7 8]", run, got)
		}
		n.Close()
	}
}

func TestLateResponseIgnored(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	lk := res.Resolve("www.example.com")
	pumpDNS(n, srv, res)
	if !lk.Done {
		t.Fatal("setup failed")
	}
	// Replay the server's answer (a duplicate/late response).
	reply := &Message{ID: lk.id, Flags: FlagQR}
	b, _ := reply.Encode()
	srv.sock.SendTo(ipCli, 3535, b)
	n.RunUntilIdle()
	res.Poll() // must not crash or resurrect the lookup
	if res.Outstanding() != 0 {
		t.Error("late response created state")
	}
}

func TestServerFormErr(t *testing.T) {
	n, srv, res := deploy(t, core.Conventional)
	// Raw garbage to port 53 from the resolver's socket.
	res.sock.SendTo(ipSrv, Port, []byte{0, 1, 2})
	n.RunUntilIdle()
	srv.Poll()
	if srv.FormErr != 1 {
		t.Errorf("FormErr = %d, want 1", srv.FormErr)
	}
}

func TestBurstAtServerBatchesUnderLDLP(t *testing.T) {
	// Many stubs fire at once: the paper's small-message burst. The
	// server host's LDLP receive path must batch them.
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("ns", ipSrv, netstack.DefaultOptions(core.LDLP))
	srv, err := NewServer(hs)
	if err != nil {
		t.Fatal(err)
	}
	srv.Add("www.example.com", layers.IPAddr{192, 0, 2, 80})
	var resolvers []*Resolver
	var lookups []*Lookup
	for i := 0; i < 30; i++ {
		hc := n.AddHost("stub", layers.IPAddr{10, 6, 1, byte(i + 1)}, netstack.DefaultOptions(core.LDLP))
		r, err := NewResolver(hc, 4000, ipSrv)
		if err != nil {
			t.Fatal(err)
		}
		resolvers = append(resolvers, r)
		lookups = append(lookups, r.Resolve("www.example.com"))
	}
	for i := 0; i < 10; i++ {
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		for _, r := range resolvers {
			r.Poll()
		}
	}
	for i, lk := range lookups {
		if !lk.Done || lk.Err != nil {
			t.Fatalf("lookup %d: done=%v err=%v", i, lk.Done, lk.Err)
		}
	}
	if got := hs.Snapshot().Stack.LargestBatch; got < 10 {
		t.Errorf("server's largest receive batch = %d, want a real burst", got)
	}
}

func BenchmarkResolve(b *testing.B) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	hs := n.AddHost("ns", ipSrv, netstack.DefaultOptions(core.Conventional))
	hc := n.AddHost("stub", ipCli, netstack.DefaultOptions(core.Conventional))
	srv, _ := NewServer(hs)
	res, _ := NewResolver(hc, 3535, ipSrv)
	srv.Add("www.example.com", layers.IPAddr{192, 0, 2, 80})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk := res.Resolve("www.example.com")
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		res.Poll()
		if !lk.Done {
			b.Fatal("lookup stuck")
		}
	}
}

func BenchmarkDecodeMessage(b *testing.B) {
	m := &Message{
		ID: 1, Flags: FlagQR,
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
		Answers:   []RR{{Name: "www.example.com", Type: TypeA, Class: ClassIN, TTL: 300, A: layers.IPAddr{1, 2, 3, 4}}},
	}
	buf, _ := m.Encode()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
