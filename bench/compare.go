package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload x end-to-end metric.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vUnresolved = "unresolved" // run-to-run spread wider than the bound
	vRegressed  = "regressed"
)

// readRecords loads an -out file: its traced or its untraced runs,
// grouped by workload.
func readRecords(path string, traced bool) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Trace == traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// judge compares the runs of one metric on one workload: base is the
// parent's readings, change the candidate's, in run order. Worse means
// higher (every end-to-end metric is lower-is-better).
//
// A median worse by more than the bound is a regression, and one inside
// it is no change — but only if the parent's own runs agree to within
// the bound; otherwise the pairing is unresolved, unless every run of
// the change beats every run of the parent. A gain needs the change to
// win nine tenths of the pairs and the medians to differ by more than
// the parent's interquartile distance.
func judge(base, change []float64, bound float64) (verdict string, ratio float64) {
	mb, mc := median(base), median(change)
	if mb == 0 || len(base) == 0 || len(change) == 0 {
		return vUnresolved, 0
	}
	ratio = mc / mb
	q1, q3 := quartiles(base)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if c >= b {
				allBetter = false
			}
		}
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if change[i] < base[i] {
			wins++
		}
	}
	gain := mb-mc > q3-q1 && pairs > 0 && float64(wins) >= 0.9*float64(pairs)
	switch {
	case spread(base) > bound:
		if allBetter {
			return vImproved, ratio
		}
		return vUnresolved, ratio
	case ratio-1 > bound:
		return vRegressed, ratio
	case gain:
		return vImproved, ratio
	}
	return vUnchanged, ratio
}

// compareFiles prints, for every workload in both files and every
// end-to-end metric, both medians, the ratio with its base, and the
// verdict; each workload on its own rows. It reports whether anything
// regressed.
func compareFiles(w io.Writer, basePath, changePath string) (regressed bool, err error) {
	base, err := readRecords(basePath, false)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath, false)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s, change %s; ratio = change median / base median; bound = allowed worsening\n", basePath, changePath)
	fmt.Fprintf(w, "%-13s %-22s %5s %14s %14s %8s %6s  %s\n", "workload", "metric", "runs", "base median", "change median", "ratio", "bound", "verdict")
	for _, wd := range workloadDefs {
		b, c := base[wd.Name], change[wd.Name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, r := range append(append([]record(nil), b...), c...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-13s a run (seed %d) failed its correctness checks: its timings count for nothing\n", wd.Name, r.Seed)
				regressed = true
			}
		}
		for _, d := range endToEnd {
			bv, cv := column(b, d.Name), column(c, d.Name)
			verdict, ratio := judge(bv, cv, d.Bound)
			if verdict == vRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-22s %2d/%-2d %14.4f %14.4f %8.4f %6.2f  %s\n",
				wd.Name, d.Name, len(bv), len(cv), median(bv), median(cv), ratio, d.Bound, verdict)
		}
	}
	return regressed, nil
}

func column(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}
