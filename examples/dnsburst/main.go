// Dnsburst: DNS is the first protocol §1 of the paper names among the
// small-message protocols "ubiquitous in the Internet". A busy
// authoritative server answers bursts of ~30-byte queries with ~60-byte
// responses — code locality is everything, payload movement is nothing.
//
// This example runs a real (mini) DNS server over the netstack, fires
// query bursts from many stub resolvers, and shows the server's LDLP
// receive path batching them; then it models the same server on the
// paper's 100 MHz machine to show the throughput difference the batching
// buys.
package main

import (
	"fmt"

	"ldlp"
	"ldlp/internal/core"
	"ldlp/internal/dns"
	"ldlp/internal/netstack"
	"ldlp/internal/sim"
	"ldlp/internal/traffic"
)

const stubs = 40

func main() {
	fmt.Println("== Functional: burst of lookups at an authoritative server ==")
	for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
		runBurst(d)
	}

	fmt.Println("\n== Modeled: the same server on the paper's 100 MHz machine ==")
	// A DNS transaction is two small messages; model the server's receive
	// path as the synthetic signalling-sized stack at increasing query
	// rates.
	for _, qps := range []float64{5000, 15000, 25000} {
		fmt.Printf("at %6.0f queries/s: ", qps)
		for _, d := range []core.Discipline{core.Conventional, core.LDLP} {
			cfg := sim.DefaultConfig(d)
			cfg.Layers = 4 // driver, ip, udp, dns
			cfg.LayerCode = 5120
			cfg.IssueFixed = 600 // name parse + table lookup
			cfg.Duration = 0.5
			res := sim.New(cfg).Run(traffic.NewPoisson(qps, 64, 7))
			fmt.Printf(" %s: %7.0fµs lat, %4.1f%% lost;", d, res.Latency.Mean()*1e6,
				100*float64(res.Dropped)/float64(res.Offered))
		}
		fmt.Println()
	}
}

func runBurst(d core.Discipline) {
	n := ldlp.NewNet()
	serverIP := ldlp.IPAddr{192, 0, 2, 53}
	hs := n.AddHost("ns", serverIP, netstack.DefaultOptions(d))
	srv, err := dns.NewServer(hs)
	if err != nil {
		panic(err)
	}
	srv.Add("www.example.com", ldlp.IPAddr{192, 0, 2, 80})
	srv.Add("api.example.com", ldlp.IPAddr{192, 0, 2, 81})

	var resolvers []*dns.Resolver
	var lookups []*dns.Lookup
	names := []string{"www.example.com", "api.example.com", "gone.example.com"}
	for i := 0; i < stubs; i++ {
		hc := n.AddHost("stub", ldlp.IPAddr{10, 8, 0, byte(i + 1)}, netstack.DefaultOptions(d))
		r, err := dns.NewResolver(hc, 4000, serverIP)
		if err != nil {
			panic(err)
		}
		resolvers = append(resolvers, r)
		lookups = append(lookups, r.Resolve(names[i%len(names)]))
	}
	for i := 0; i < 10; i++ {
		n.RunUntilIdle()
		srv.Poll()
		n.RunUntilIdle()
		for _, r := range resolvers {
			r.Poll()
		}
	}
	resolved, nx := 0, 0
	for _, lk := range lookups {
		switch {
		case lk.Done && lk.Err == nil:
			resolved++
		case lk.Done:
			nx++
		}
	}
	fmt.Printf("[%v] %d stubs: %d resolved, %d NXDOMAIN; server answered %d; "+
		"largest receive batch %d frames\n",
		d, stubs, resolved, nx, srv.Answered, hs.Snapshot().Stack.LargestBatch)
}
