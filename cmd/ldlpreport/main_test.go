package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ldlp/internal/sim"
)

// resultsDir is the committed output of `make report`.
const resultsDir = "../../results"

// golden names the artifacts that ignore the sweep size, so what they
// render anywhere must equal their committed file byte for byte. The
// others are sweeps: too slow to regenerate at defaultSweep inside
// `go test` (CI's "Report drift" step does that), so they are held to
// determinism at sim.QuickSweep instead.
var golden = map[string]bool{
	"table1": true, "phases": true, "table3": true, "figure1": true,
	"cisc": true, "layout": true, "figure8": true, "analytic": true,
	"dispatch_skew": true, "fleet_gossip": true,
}

// slow marks the golden artifacts that are not sub-second.
var slow = map[string]bool{"fleet_gossip": true}

// TestRegistryMatchesResults holds results/ to the registry: unique
// names, one <name>.txt per artifact, and nothing else in the directory.
func TestRegistryMatchesResults(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for _, a := range registry {
		if seen[a.name] {
			t.Errorf("artifact %q registered twice", a.name)
		}
		seen[a.name] = true
		want = append(want, a.name+".txt")
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden names %q, which is not in the registry", name)
		}
	}
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("results/ holds %v, registry renders %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("results/ holds %s where the registry renders %s", got[i], want[i])
		}
	}
}

// TestArtifactsRender renders every artifact at the quick sweep: golden
// ones must reproduce their committed file, sweeps must come out
// non-empty and identical twice.
func TestArtifactsRender(t *testing.T) {
	for _, a := range registry {
		t.Run(a.name, func(t *testing.T) {
			if testing.Short() && (!golden[a.name] || slow[a.name]) {
				t.Skip("sweep")
			}
			got := a.render(sim.QuickSweep())
			if got == "" {
				t.Fatal("rendered nothing")
			}
			want, err := os.ReadFile(filepath.Join(resultsDir, a.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !golden[a.name] {
				if again := a.render(sim.QuickSweep()); again != got {
					t.Errorf("two renders differ:\n%s---\n%s", got, again)
				}
				// The numbers move with the sweep size; which tables there
				// are, and their columns, do not.
				if g, w := tableHeads(got), tableHeads(string(want)); g != w {
					t.Errorf("results/%s.txt is stale (run `make report`): it holds the tables\n%s, the registry renders\n%s", a.name, w, g)
				}
				return
			}
			if got != string(want) {
				t.Errorf("results/%s.txt is stale (run `make report`); rendered:\n%s", a.name, got)
			}
		})
	}
}

// tableHeads extracts each table's title line and column header from a
// rendered artifact.
func tableHeads(s string) string {
	var heads []string
	lines := strings.Split(s, "\n")
	for i, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "# ") && strings.Contains(lines[i+1], "\t") {
			heads = append(heads, line+" | "+lines[i+1])
		}
	}
	return strings.Join(heads, "\n")
}

// TestSelectArtifacts covers the command line's one piece of logic.
func TestSelectArtifacts(t *testing.T) {
	if all, err := selectArtifacts(nil); err != nil || len(all) != len(registry) {
		t.Errorf("no names selected %d of %d artifacts, err %v", len(all), len(registry), err)
	}
	two, err := selectArtifacts([]string{"layout", "table1"})
	if err != nil || len(two) != 2 || two[0].name != "layout" || two[1].name != "table1" {
		t.Errorf("named selection = %v, %v", two, err)
	}
	if _, err := selectArtifacts([]string{"table9"}); err == nil {
		t.Error("unknown artifact name accepted")
	}
}
