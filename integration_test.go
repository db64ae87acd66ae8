package ldlp_test

import (
	"strings"
	"testing"

	"ldlp"
	"ldlp/internal/core"
	"ldlp/internal/dns"
	"ldlp/internal/httpd"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

// TestFullStackStory exercises several subsystems end to end on one
// network: a stub resolver looks up the web server's name in DNS, a
// client connects to the resolved address over TCP-lite and fetches a
// page from the HTTP server — every message in the exchange small, every
// receive path LDLP-scheduled.
func TestFullStackStory(t *testing.T) {
	mbuf.ResetPool()
	n := ldlp.NewNet()
	opts := ldlp.DefaultHostOptions(ldlp.LDLP)

	nsIP := ldlp.IPAddr{203, 0, 113, 53}
	wwwIP := ldlp.IPAddr{203, 0, 113, 80}
	nsHost := n.AddHost("ns", nsIP, opts)
	wwwHost := n.AddHost("www", wwwIP, opts)
	cliHost := n.AddHost("client", ldlp.IPAddr{203, 0, 113, 10}, opts)

	// Authoritative DNS knows the web server.
	ns, err := dns.NewServer(nsHost)
	if err != nil {
		t.Fatal(err)
	}
	ns.Add("www.sigcomm96.example", wwwIP)

	// The web server serves the abstract.
	web, err := httpd.NewServer(wwwHost, 80, func(path string) (string, bool) {
		if path == "/abstract" {
			return "memory system penalties dominate small-message protocols", true
		}
		return "", false
	})
	if err != nil {
		t.Fatal(err)
	}

	// Resolve.
	res, err := dns.NewResolver(cliHost, 3000, nsIP)
	if err != nil {
		t.Fatal(err)
	}
	lk := res.Resolve("www.sigcomm96.example")
	for i := 0; i < 8 && !lk.Done; i++ {
		n.RunUntilIdle()
		ns.Poll()
		n.RunUntilIdle()
		res.Poll()
	}
	if !lk.Done || lk.Err != nil {
		t.Fatalf("resolution failed: %v %v", lk.Done, lk.Err)
	}
	if lk.Addr != wwwIP {
		t.Fatalf("resolved %v, want %v", lk.Addr, wwwIP)
	}

	// Fetch from the resolved address.
	cli := httpd.Dial(cliHost, wwwHost, 80)
	n.RunUntilIdle()
	if !cli.Connected() {
		t.Fatal("TCP handshake failed")
	}
	cli.Get("/abstract")
	for i := 0; i < 8; i++ {
		n.RunUntilIdle()
		web.Poll()
		n.RunUntilIdle()
		cli.Poll()
	}
	r, ok := cli.Next()
	if !ok || !strings.Contains(r.Body, "memory system penalties") {
		t.Fatalf("fetch failed: %+v ok=%v", r, ok)
	}

	// All three hosts ran LDLP receive paths; message sizes were small.
	for _, h := range []*netstack.Host{nsHost, wwwHost, cliHost} {
		if h.Snapshot().Counters.FramesIn == 0 {
			t.Errorf("host %s received nothing", h.Name())
		}
	}
	n.Tick(3) // drain delayed ACKs and timers before leak accounting
	if s := mbuf.PoolStats(); s.InUse != 0 {
		t.Errorf("mbuf leak across the story: %+v", s)
	}
}

// TestPerLayerCountersAfterTraffic checks the engine's per-layer
// accounting through a real netstack exchange.
func TestPerLayerCountersAfterTraffic(t *testing.T) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	a := n.AddHost("a", layers.IPAddr{10, 13, 0, 1}, netstack.DefaultOptions(core.LDLP))
	b := n.AddHost("b", layers.IPAddr{10, 13, 0, 2}, netstack.DefaultOptions(core.LDLP))
	sa, _ := a.UDPSocket(1)
	sb, _ := b.UDPSocket(2)
	for i := 0; i < 10; i++ {
		sa.SendTo(b.IP(), 2, []byte{byte(i)})
	}
	n.RunUntilIdle()
	if sb.Pending() != 10 {
		t.Fatalf("pending = %d", sb.Pending())
	}
	st := b.Snapshot().Stack
	// device, ether, ip, udp, socket each processed all ten: 50 handler
	// invocations; tcp and icmp layers idle.
	if st.Processed != 50 {
		t.Errorf("processed = %d, want 50", st.Processed)
	}
	if st.Delivered != 10 {
		t.Errorf("delivered = %d, want 10", st.Delivered)
	}
}
