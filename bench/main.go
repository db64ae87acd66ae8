// Command bench is the repository's benchmark: five small-message
// workloads, each run under the conventional and the LDLP schedule,
// reporting end-to-end metrics (untraced) or a per-layer cost table
// (traced). It drives the system only through exported calls and never
// touches a real link: traffic crosses the in-memory netstack.Net wire
// or a carrier closure.
//
//	go run ./bench -workload tcp_rx_k1 -seed 1              end-to-end metrics
//	go run ./bench -workload tcp_rx_k1 -seed 1 -trace 1     per-layer metrics + Chrome trace
//	go run ./bench -selfcheck                               does the benchmark agree with itself?
//	go run ./bench -compare old.jsonl new.jsonl             verdict per workload x metric
//
// See bench/README.md for the metric and workload dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
)

func main() {
	var p params
	flag.StringVar(&p.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&p.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&p.seconds, "seconds", 20, "seconds to measure for")
	flag.BoolVar(&p.quick, "quick", false, "smoke size: 2 windows of 20 ms, 64-node fleet; checks intact")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, Chrome trace); 0: end-to-end metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace_<workload>.json)")
	out := flag.String("out", "", "append this run's result to a JSON-lines file, for -compare")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice under one seed and once under another; fail if the same-seed runs disagree beyond the bounds")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.jsonl new.jsonl")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *selfcheck:
		ok, err := selfCheck(os.Stdout, p)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if *traceOut == "" {
			*traceOut = ".bench_build/trace_" + p.workload + ".json"
		}
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(p, *traceOut)
		} else {
			res, err = runEndToEnd(p)
		}
		if err != nil {
			fatal(err)
		}
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
			fmt.Printf("chrome trace: %s\n", *traceOut)
		}
		printHuman(os.Stdout, res, defs)
		if *out != "" {
			if err := appendRecord(*out, res, defs, *trace != 0); err != nil {
				fatal(err)
			}
		}
		// The last line of standard output is the machine-readable result.
		line, err := json.Marshal(report(res, defs))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if res.failed != 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() string {
	s := ""
	for i, d := range workloadDefs {
		if i > 0 {
			s += ", "
		}
		s += d.Name
	}
	return s
}

// newWorkload builds the named workload's generator from the seed. The
// program under test sees only what the generator produces.
func newWorkload(p params) (workload, error) {
	switch p.workload {
	case "tcp_rx_k1":
		return newTCPRx(p, 1, 1), nil
	case "tcp_rx_k14":
		return newTCPRx(p, 14, 4096), nil
	case "udp_rpc":
		return newUDPRPC(p), nil
	case "http_get":
		return newHTTPGet(p), nil
	case "fleet_gossip":
		return newFleetGossip(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", p.workload, workloadNames())
}

// metricValue is one reading as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the result line: exactly these four keys.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func report(res *result, defs []metricDef) runReport {
	r := runReport{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r
}

// printHuman prints the run for a reader: environment, sample counts,
// every metric by name with its unit, and whatever failed.
func printHuman(w io.Writer, res *result, defs []metricDef) {
	gogc := "100"
	if v := os.Getenv("GOGC"); v != "" {
		gogc = v
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  nproc %d  GOMAXPROCS %d  GOGC %s  (in-memory wire: no real link)\n",
		res.p.workload, res.p.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc)
	if s := res.s; s != nil {
		for c := conv; c < numCfgs; c++ {
			q1, q3 := quartiles(s.perWindow[c])
			fmt.Fprintf(w, "%-4s  %d windows  %d rounds timed  %d messages  window ns/msg: best %.1f  quartiles %.1f %.1f %.1f  worst %.1f\n",
				cfgNames[c], len(s.perWindow[c]), s.rounds[c], s.msgs[c],
				best(s.perWindow[c]), q1, median(s.perWindow[c]), q3, slices.Max(s.perWindow[c]))
		}
	}
	if len(res.setups) > 0 {
		fmt.Fprintf(w, "set-ups (s): %.4f\n", res.setups)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  fail_share %g\n", res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// record is one line of an -out file: a run, labelled.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Failures []string           `json:"failures,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Exact    map[string]string  `json:"exact,omitempty"` // see result.exact
}

func appendRecord(path string, res *result, defs []metricDef, traced bool) error {
	rec := record{Workload: res.p.workload, Seed: res.p.seed, Trace: traced, Correct: res.failed == 0,
		Failures: res.failures, Metrics: map[string]float64{}, Exact: res.exact}
	for _, d := range defs {
		rec.Metrics[d.Name] = res.metrics[d.Name]
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
