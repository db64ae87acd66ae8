package gossip

import (
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/fleet"
)

// BenchmarkFleetGossip is threshold gossip at 1000 nodes (256 under
// -short), LDLP and conventional back to back, on a clean and a lossy
// link model. Custom metrics: rounds-per-step and delivery-p99-ns
// describe the LDLP run; ldlp-latency-ratio is conventional p99 over
// LDLP p99 — the fleet-scale headline, expected well above 1.
func BenchmarkFleetGossip(b *testing.B) {
	nodes := 1000
	if testing.Short() {
		nodes = 256
	}
	for _, tc := range []struct {
		name, preset string
	}{
		{"clean", ""},
		{"lossy", "bernoulli"},
	} {
		b.Run(fmt.Sprintf("%s/n%d", tc.name, nodes), func(b *testing.B) {
			link := fleet.LANLink()
			if tc.preset != "" {
				link = fleet.FaultyLink(link, tc.preset)
			}
			run := func(d core.Discipline) Result {
				res, err := Run(Config{
					Fleet: fleet.Config{
						Topology:   fleet.SmallWorld(nodes, 8, 0.1, 1),
						Discipline: d,
						Link:       link,
						Seed:       1,
					},
					TargetStep: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("%v run did not converge: %+v", d, res)
				}
				return res
			}
			for i := 0; i < b.N; i++ {
				ldlp := run(core.LDLP)
				conv := run(core.Conventional)
				b.ReportMetric(ldlp.RoundsPerStep, "rounds-per-step")
				b.ReportMetric(ldlp.DeliveryP99, "delivery-p99-ns")
				b.ReportMetric(conv.DeliveryP99/ldlp.DeliveryP99, "ldlp-latency-ratio")
			}
		})
	}
}
