package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(ten); !near(got, 1, 1e-12) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v", q1, q3)
	}
}

func TestTailHistQuantile(t *testing.T) {
	var h tailHist
	if h.quantile(0.99) != 0 {
		t.Error("empty histogram should read 0")
	}
	// 1000 samples 1000, 1001, ..., 1999 ns: p99 is 1990, p50 1500; the
	// histogram may be off by its 0.5 % bucket width.
	for i := 0; i < 1000; i++ {
		h.observe(float64(1000 + i))
	}
	if got := h.quantile(0.99); !near(got, 1990, 0.006) {
		t.Errorf("p99 = %v, want 1990 within a bucket", got)
	}
	if got := h.quantile(0.50); !near(got, 1500, 0.006) {
		t.Errorf("p50 = %v, want 1500 within a bucket", got)
	}
	// A single outlier a thousand times larger must not move p99 of
	// 1000 samples by more than a rank.
	h.observe(1e6)
	if got := h.quantile(0.99); got > 2010 {
		t.Errorf("p99 with one outlier = %v", got)
	}
	if got := h.quantile(1); !near(got, 1e6, 0.006) {
		t.Errorf("max = %v, want 1e6 within a bucket", got)
	}
}

func TestSelfTime(t *testing.T) {
	// round [0,100] holds call A [10,40], which holds B [20,30], and call
	// C [50,90]. Self: round 100-30-40 = 30, A 30-10 = 20, B 10, C 40.
	spans := []span{
		{name: spRound, parent: -1, start: 0, end: 100},
		{name: spInject, parent: 0, start: 10, end: 40},
		{name: spFrameAlloc, parent: 1, start: 20, end: 30},
		{name: spPump, parent: 0, start: 50, end: 90},
	}
	want := []int64{30, 20, 10, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}

	// The recorder's running sums must agree with the reference computed
	// from the intervals it kept.
	rec := newSpanRec(time.Now())
	for round := 0; round < 50; round++ {
		rec.begin(spRound)
		rec.begin(spInject)
		rec.begin(spFrameAlloc)
		rec.end()
		rec.end()
		rec.begin(spPump)
		rec.end()
		rec.end()
	}
	var fromSpans [numSpans]int64
	for i, self := range selfTimes(rec.spans) {
		fromSpans[rec.spans[i].name] += self
	}
	if fromSpans != rec.selfNs {
		t.Errorf("recorder sums %v differ from interval arithmetic %v", rec.selfNs, fromSpans)
	}
	if rec.round != 50 || rec.spans[len(rec.spans)-1].round != 49 {
		t.Errorf("round bookkeeping: %d rounds closed, last span in round %d", rec.round, rec.spans[len(rec.spans)-1].round)
	}
	var none *spanRec
	none.begin(spRound) // the untraced run: must be a no-op, not a crash
	none.end()
	if none.selfPer(spRound, 10) != 0 {
		t.Error("nil recorder reported time")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 125}
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"same", steady, steady, vUnchanged},
		{"slower inside bound", steady, shift(1.05), vUnchanged},
		{"slower beyond bound", steady, shift(1.2), vRegressed},
		{"faster", steady, shift(0.8), vImproved},
		{"noisy base", noisy, shift(1.0), vUnresolved},
		{"noisy base, change wins every run", noisy, shift(0.5), vImproved},
	} {
		if got, _ := judge(tc.base, tc.change, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// quickParams is the smoke size the tier-1 run uses.
func quickParams(workload string) params {
	return params{workload: workload, seed: 7, seconds: 1, quick: true}
}

// TestQuickWorkloads runs all five workloads at smoke size with every
// correctness check on, and insists on the whole lot staying quick.
func TestQuickWorkloads(t *testing.T) {
	start := time.Now()
	for _, wd := range workloadDefs {
		res, err := runEndToEnd(quickParams(wd.Name))
		if err != nil {
			t.Fatalf("%s: %v", wd.Name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", wd.Name, res.attempted, res.failed, res.failures)
		}
		rep := report(res, endToEnd)
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want %d", wd.Name, len(rep.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			// The acceptance rule divides by each metric's median.
			if v := rep.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", wd.Name, d.Name, v)
			}
		}
		for _, name := range exactNames[wd.Name] {
			if res.exact[name] == "" {
				t.Errorf("%s: no reading for exact count %s", wd.Name, name)
			}
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("quick mode took %v, want under 5 s", el)
	}
}

// TestQuickTraced checks that a traced run reports every per-layer
// metric and writes a Chrome trace that parses, on one TCP and one UDP
// workload.
func TestQuickTraced(t *testing.T) {
	for _, name := range []string{"tcp_rx_k14", "udp_rpc"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		res, err := runTraced(quickParams(name), path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: failed %d: %v", name, res.failed, res.failures)
		}
		rep := report(res, perLayer)
		for _, d := range perLayer {
			if _, ok := res.metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not measured", name, d.Name)
			}
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, want %d", name, len(rep.Metrics), len(perLayer))
		}
		for _, always := range []string{"mbuf.frame_alloc_free_ns", "core.conv_ns_per_msg", "netstack.ldlp_ns_per_msg.k14", "netstack.udp_rx_ns_per_msg.ldlp", "core.queue_ops_per_msg"} {
			if !(res.metrics[always] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, always, res.metrics[always])
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("%s: Chrome trace does not parse: %v", name, err)
		}
		depth := map[float64]int{}
		for _, ev := range events {
			switch ev["ph"] {
			case "B":
				depth[ev["tid"].(float64)]++
			case "E":
				depth[ev["tid"].(float64)]--
			}
		}
		for tid, d := range depth {
			if d != 0 {
				t.Errorf("%s: thread %v has %d unbalanced spans", name, tid, d)
			}
		}
		if len(events) < 100 {
			t.Errorf("%s: only %d trace events", name, len(events))
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchManifest keeps the names this binary emits and the
// names BENCHMARK.json promises from drifting apart.
func TestNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the allowed characters", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("manifest has %d workloads, binary %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		check(w.Name, "")
		if m.Workloads[i] != w {
			t.Errorf("workload %d: manifest %+v, binary %+v", i, m.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(params{workload: w.Name, quick: true}); err != nil {
			t.Errorf("manifest workload %s: %v", w.Name, err)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, binary %d", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		check(d.Name, d.Unit)
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, binary %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, binary %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit)
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, binary %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
		if d.Layer == "" || d.What == "" || d.Moves == "" {
			t.Errorf("%s: layer, what and should-move must all be documented", d.Name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	for _, names := range exactNames {
		for _, n := range names {
			if !seen[n] && n != "fleet.history_hash" {
				t.Errorf("exact count %s is not a per-layer metric", n)
			}
		}
	}
}

// TestResultLineShape pins the keys of the machine-readable result.
func TestResultLineShape(t *testing.T) {
	res := &result{attempted: 10, metrics: map[string]float64{"setup_s": 0.5, "conv.ns_per_msg": math.NaN()}}
	line, err := json.Marshal(report(res, endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(got), line)
	}
}
