package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// selfCheck asks whether the benchmark agrees with itself: every
// workload runs twice under one seed and once under a second. It prints
// the three sets side by side and fails if an end-to-end metric differs
// between the same-seed runs by more than its own bound, if a reading
// that should be a function of the seed alone differs at all, or if any
// run failed its correctness checks. The batch sweep, which no
// end-to-end run takes, runs twice and is held to sweepBound.
func selfCheck(w io.Writer, p params) (ok bool, err error) {
	ok = true
	complain := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "SELFCHECK FAILED: "+format+"\n", args...)
	}
	seeds := [3]int64{p.seed, p.seed, p.seed + 1}
	for _, wd := range workloadDefs {
		var runs [3]record
		for i, seed := range seeds {
			q := p
			q.workload, q.seed = wd.Name, seed
			if runs[i], err = runChild(q, false); err != nil {
				return false, err
			}
			for _, f := range runs[i].Failures {
				complain("%s seed %d: %s", wd.Name, seed, f)
			}
		}
		fmt.Fprintf(w, "%-13s %-22s %14s %14s %14s %8s %6s\n", wd.Name, "metric",
			fmt.Sprintf("seed %d", seeds[0]), fmt.Sprintf("seed %d again", seeds[1]), fmt.Sprintf("seed %d", seeds[2]), "a/b - 1", "bound")
		for _, d := range endToEnd {
			a, b, c := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name], runs[2].Metrics[d.Name]
			diff := relDiff(a, b)
			fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %14.4f %+8.4f %6.2f\n", "", d.Name, a, b, c, diff, d.Bound)
			// Quick runs' 20 ms windows say nothing about agreement; they
			// are held to the exact counts and the correctness checks only.
			if !p.quick && (diff > d.Bound || diff < -d.Bound) {
				complain("%s %s: %.6g vs %.6g under the same seed is beyond %.2f", wd.Name, d.Name, a, b, d.Bound)
			}
		}
		for _, name := range exactNames[wd.Name] {
			a, b := runs[0].Exact[name], runs[1].Exact[name]
			fmt.Fprintf(w, "%-13s %-22s %14s %14s %14s   exact\n", "", name, a, b, runs[2].Exact[name])
			if a != b || a == "" {
				complain("%s %s: %q vs %q under the same seed must be identical", wd.Name, name, a, b)
			}
		}
	}

	// The batch sweep twice, as two traced runs take it: the native LDLP
	// curve must repeat too.
	var sweeps [2]record
	for i := range sweeps {
		q := p
		q.workload = "tcp_rx_k1"
		if sweeps[i], err = runChild(q, true); err != nil {
			return false, err
		}
		for _, f := range sweeps[i].Failures {
			complain("traced tcp_rx_k1: %s", f)
		}
	}
	fmt.Fprintf(w, "%-13s %-36s %14s %14s %8s %6s\n", "batch sweep", "metric", "first", "second", "a/b - 1", "bound")
	for _, k := range sweepKs {
		for c := conv; c < numCfgs; c++ {
			name := sweepName(c, k)
			a, b := sweeps[0].Metrics[name], sweeps[1].Metrics[name]
			diff := relDiff(a, b)
			fmt.Fprintf(w, "%-13s %-36s %14.2f %14.2f %+8.4f %6.2f\n", "", name, a, b, diff, sweepBound)
			if !p.quick && (diff > sweepBound || diff < -sweepBound) {
				complain("%s: %.2f vs %.2f is beyond %.2f", name, a, b, sweepBound)
			}
		}
	}
	fmt.Fprintf(w, "%-13s %-36s %14.0f %14.0f\n", "", "netstack.breakeven_k", sweeps[0].Metrics["netstack.breakeven_k"], sweeps[1].Metrics["netstack.breakeven_k"])
	return ok, nil
}

const sweepBound = 0.10

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a/b - 1
}

// runChild runs one run in a process of its own, as the acceptance rule
// does: a fresh heap per run, and a fresh dial budget (three tcp_rx_k14
// runs in one process would exhaust maxDials).
func runChild(p params, traced bool) (record, error) {
	var rec record
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return rec, err
	}
	out := filepath.Join(".bench_build", fmt.Sprintf("selfcheck_%d.jsonl", os.Getpid()))
	defer os.Remove(out)
	args := []string{"-workload", p.workload, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-out", out}
	if p.quick {
		args = append(args, "-quick")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// A run that fails its checks exits 1 after writing its record; only a
	// run that wrote none is an error here.
	runErr := cmd.Run()
	recs, err := readRecords(out, traced)
	if err != nil || len(recs[p.workload]) == 0 {
		return rec, fmt.Errorf("%s seed %d: no record written (run: %v, read: %v)", p.workload, p.seed, runErr, err)
	}
	return recs[p.workload][0], nil
}
