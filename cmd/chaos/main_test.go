package main

import (
	"fmt"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/faults"
)

// TestScenarioPassesOnEverySeed is the driver's own regression test:
// whether a run passes must depend on the stack, never on which seed it
// drew. bursty is the preset under which a fraction of seeds lose eight
// frames in a row and TCP gives up (a counted outcome, not a violation);
// all composes every impairment.
func TestScenarioPassesOnEverySeed(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, mix := range []string{"bursty", "all"} {
		cfg := faults.Presets()[mix]
		for _, eng := range []struct {
			name   string
			d      core.Discipline
			shards int
		}{{"conventional", core.Conventional, 1}, {"ldlp-rx4", core.LDLP, 4}} {
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", mix, eng.name, seed), func(t *testing.T) {
					for _, err := range runScenario(cfg, eng.d, eng.shards, seed, 40, false, mix) {
						t.Error(err)
					}
				})
			}
		}
	}
}
