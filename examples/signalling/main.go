// Signalling: run the Q.93B-flavoured connection setup/teardown protocol
// over the in-memory netstack between a user and a network agent (with a
// peak-rate admission policy), then evaluate the paper's §1 performance
// goal — 10 000 setup/teardown pairs per second at 100 µs processing
// latency — on the modeled 100 MHz machine under both disciplines.
package main

import (
	"fmt"

	"ldlp"
	"ldlp/internal/signal"
	"ldlp/internal/sim"
	"ldlp/internal/traffic"
)

func main() {
	fmt.Println("== Functional: call setup/teardown over the netstack ==")
	n := ldlp.NewNet()
	hu := n.AddHost("user", ldlp.IPAddr{10, 0, 0, 1}, ldlp.DefaultHostOptions(ldlp.LDLP))
	hn := n.AddHost("switch", ldlp.IPAddr{10, 0, 0, 2}, ldlp.DefaultHostOptions(ldlp.LDLP))
	user, err := ldlp.NewSignalAgent(hu, 0x1001)
	if err != nil {
		panic(err)
	}
	network, err := ldlp.NewSignalAgent(hn, 0x2002)
	if err != nil {
		panic(err)
	}
	// Admission: reject calls asking for more than 10k cells/s of peak.
	network.Admission = func(m *ldlp.SignalMessage) bool { return m.PeakCells <= 10000 }

	pump := func() {
		for i := 0; i < 8; i++ {
			n.RunUntilIdle()
			user.Poll()
			network.Poll()
		}
	}

	modest := user.Dial(hn.IP(), 0x2002, 353)
	greedy := user.Dial(hn.IP(), 0x2002, 99999)
	pump()
	fmt.Printf("modest call (353 cells/s):  %v\n", modest.State())
	fmt.Printf("greedy call (99999 cells/s): %v (rejected by admission)\n", greedy.State())

	// A burst of setups: the network-side LDLP stack batches them.
	var calls []*ldlp.SignalCall
	for i := 0; i < 30; i++ {
		calls = append(calls, user.Dial(hn.IP(), 0x2002, uint32(100+i)))
	}
	pump()
	active := 0
	for _, c := range calls {
		if c.State() == ldlp.CallActive {
			active++
		}
	}
	fmt.Printf("burst of 30 setups: %d active; switch's largest receive batch: %d frames\n",
		active, hn.Snapshot().Stack.LargestBatch)
	for _, c := range calls {
		c.Hangup()
	}
	modest.Hangup()
	pump()
	fmt.Printf("after hangups: %d active calls, %d completed at the switch\n\n",
		network.ActiveCalls(), network.Stats.CallsCompleted)

	fmt.Println("== Cross-country: a call through a chain of transit switches ==")
	transitDemo()

	fmt.Println("== Performance: the §1 goal on the modeled 100 MHz machine ==")
	offered := float64(signal.GoalPairsPerSec * signal.MessagesPerPair)
	for _, d := range []ldlp.Discipline{ldlp.Conventional, ldlp.LDLP} {
		cfg := signal.SimConfig(d)
		cfg.Duration = 1
		res := sim.New(cfg).Run(traffic.NewPoisson(offered, signal.MessageBytes, 7))
		proc := res.BusyFrac * cfg.Duration / float64(res.Processed)
		fmt.Printf("%-14s processing %6.1fµs/msg  total latency %9.1fµs  drops %5d/%d  mean batch %.1f\n",
			d, proc*1e6, res.Latency.Mean()*1e6, res.Dropped, res.Offered, res.MeanBatch)
	}
	fmt.Printf("goal: ≤%.0fµs processing per message at %d pairs/s\n",
		signal.GoalLatency*1e6, signal.GoalPairsPerSec)
}

// transitDemo routes a call through 10 transit switches (§1: "a
// cross-country connection might pass through 10 to 20 switches").
func transitDemo() {
	const hops = 10
	n := ldlp.NewNet()
	total := hops + 2
	agents := make([]*ldlp.SignalAgent, total)
	ips := make([]ldlp.IPAddr, total)
	for i := 0; i < total; i++ {
		ips[i] = ldlp.IPAddr{10, 20, 0, byte(i + 1)}
		h := n.AddHost(fmt.Sprintf("sw%d", i), ips[i], ldlp.DefaultHostOptions(ldlp.LDLP))
		a, err := ldlp.NewSignalAgent(h, uint32(5000+i))
		if err != nil {
			panic(err)
		}
		agents[i] = a
	}
	calleeAddr := uint32(5000 + total - 1)
	for i := 1; i < total-1; i++ {
		next := ips[i+1]
		agents[i].Route = func(called uint32) (ldlp.IPAddr, bool) {
			return next, called == calleeAddr
		}
	}
	call := agents[0].Dial(ips[1], calleeAddr, 353)
	for round := 0; round < 6*total; round++ {
		n.RunUntilIdle()
		for _, a := range agents {
			a.Poll()
		}
	}
	transits := int64(0)
	for _, a := range agents {
		transits += a.Stats.TransitSetups
	}
	fmt.Printf("call across %d switches: %v (transit setups: %d)\n", hops, call.State(), transits)
	call.Hangup()
	for round := 0; round < 6*total; round++ {
		n.RunUntilIdle()
		for _, a := range agents {
			a.Poll()
		}
	}
	fmt.Printf("after hangup: far end active calls = %d\n\n", agents[total-1].ActiveCalls())
}
