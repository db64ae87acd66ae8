// Command ldlpsim runs the fleet-scale threshold-gossip figure
// (gossip.FigureFleetGossip) at a chosen size: the TLC workload on the
// event-driven fleet simulator, LDLP vs conventional, clean vs
// fault-preset links. ldlpreport's fleet_gossip artifact is this run at
// its defaults; every paper figure lives there too.
//
// Usage:
//
//	ldlpsim [-fleet-nodes 1000] [-fleet-steps 5] [-fleet-seed 1]
//	        [-fleet-preset bernoulli]
//
// Every run verifies the fleet's conservation and scheduler ledgers and
// exits non-zero on a violation or an incomplete cell; the byte-identical
// replay check is TestReplayByteIdentical in internal/fleet/gossip.
package main

import (
	"flag"
	"fmt"
	"os"

	"ldlp/internal/fleet/gossip"
)

func main() {
	var (
		nodes  = flag.Int("fleet-nodes", 1000, "fleet size")
		steps  = flag.Uint("fleet-steps", 5, "logical-clock target step")
		seed   = flag.Int64("fleet-seed", 1, "fleet seed (topology, jitter, faults)")
		preset = flag.String("fleet-preset", "bernoulli", "faults preset for the impaired link row")
	)
	flag.Parse()
	tab, err := gossip.FigureFleetGossip(gossip.FigureConfig{
		Nodes: *nodes, TargetStep: uint32(*steps), Seed: *seed, FaultPreset: *preset,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldlpsim:", err)
		os.Exit(1)
	}
	fmt.Print(tab)
}
