// Command ldlptrace runs a Poisson UDP workload through the in-memory
// netstack and emits the server's telemetry flight recorder as a Chrome
// trace_event file, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The per-shard tracks show one complete span per LDLP
// pass — named for the group of layers it ran, device+ether+ip or
// udp+socket — and the batch-size counter; run both loads to see the
// paper's effect — a lightly loaded receiver batches ~1 message per
// pass, a heavily loaded one amortizes each group's code over
// BatchLimit-sized batches.
//
// Usage:
//
//	ldlptrace [-out trace.json] [-load light|heavy|both] [-shards N]
//	          [-rate msgs/s] [-duration seconds] [-seed N] [-ring N]
//	          [-check] [-format chrome|snapshot]
//
// Everything is driven by the Net's simulated clock, so a given seed
// reproduces the trace byte-for-byte. -check re-reads the emitted file
// and validates it: well-formed JSON, non-empty, per-track
// non-decreasing timestamps, and a non-negative duration on every
// complete event. Exit status is non-zero on any failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
	"ldlp/internal/traffic"
)

var (
	ipClient = layers.IPAddr{10, 9, 0, 1}
	ipServer = layers.IPAddr{10, 9, 0, 2}
)

func main() {
	var (
		out      = flag.String("out", "trace.json", "output file")
		load     = flag.String("load", "both", "workload: light, heavy, or both")
		shards   = flag.Int("shards", 1, "receive shards on the server host")
		rate     = flag.Float64("rate", 5000, "mean Poisson arrival rate (msgs/s)")
		duration = flag.Float64("duration", 0.05, "simulated seconds per workload")
		seed     = flag.Int64("seed", 1, "Poisson seed (traces replay exactly per seed)")
		ring     = flag.Int("ring", 1<<16, "flight-recorder ring capacity per tracer")
		check    = flag.Bool("check", false, "re-read and validate the emitted trace")
		format   = flag.String("format", "chrome", "output format: chrome (trace_event) or snapshot (raw JSON)")
	)
	flag.Parse()

	type workload struct {
		name string
		pid  int
		// quantum is the pump interval: arrivals accumulate between
		// pumps, so rate*quantum sets the offered batch size.
		quantum float64
	}
	var loads []workload
	light := workload{name: "light", pid: 1, quantum: 0.5 / *rate}
	heavy := workload{name: "heavy", pid: 2, quantum: 64 / *rate}
	switch *load {
	case "light":
		loads = []workload{light}
	case "heavy":
		loads = []workload{heavy}
	case "both":
		loads = []workload{light, heavy}
	default:
		fmt.Fprintf(os.Stderr, "ldlptrace: unknown load %q\n", *load)
		os.Exit(2)
	}

	var events []telemetry.TraceEvent
	var snaps []telemetry.Snapshot
	for _, w := range loads {
		snap, err := run(w.pid, *shards, *rate, *duration, *seed, *ring, w.quantum)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldlptrace: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		snap.Domain = "server-" + w.name
		bh, _ := snap.Hist("ldlp-batch")
		s := bh.Summary()
		fmt.Printf("%-5s load: %6d msgs in %d batches, batch p50 %.1f p99 %.1f max %d\n",
			w.name, bh.Sum, s.Count, s.P50, s.P99, s.Max)
		events = append(events, snap.ChromeTrace(w.pid)...)
		snaps = append(snaps, snap)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlptrace: %v\n", err)
		os.Exit(1)
	}
	switch *format {
	case "chrome":
		err = telemetry.WriteChromeTrace(f, events)
	case "snapshot":
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(snaps)
	default:
		fmt.Fprintf(os.Stderr, "ldlptrace: unknown format %q\n", *format)
		os.Exit(2)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlptrace: writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d events)\n", *out, len(events))

	if *check && *format == "chrome" {
		if err := validate(*out); err != nil {
			fmt.Fprintf(os.Stderr, "ldlptrace: trace validation failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("trace validated: well-formed, per-track timestamps monotonic, complete events have durations")
	}
}

// run drives one workload and returns the server's telemetry snapshot.
func run(pid, shards int, rate, duration float64, seed int64, ring int, quantum float64) (telemetry.Snapshot, error) {
	mbuf.ResetPool()
	n := netstack.NewNet()
	defer n.Close()

	opts := netstack.DefaultOptions(core.LDLP)
	if shards > 1 {
		opts.RxShards = shards
	}
	opts.TelemetryRing = ring
	server := n.AddHost("server", ipServer, opts)
	copts := netstack.DefaultOptions(core.LDLP)
	copts.TelemetryRing = ring
	client := n.AddHost("client", ipClient, copts)

	ssock, err := server.UDPSocket(7)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	csock, err := client.UDPSocket(9)
	if err != nil {
		return telemetry.Snapshot{}, err
	}

	// §4 workload: fixed-size small messages from a Poisson source. The
	// Net pumps every quantum; arrivals in between land in the same
	// device-layer batch, so the quantum sets the offered load per pump.
	src := traffic.NewPoisson(rate, 552, seed)
	payload := make([]byte, 552-layers.UDPLen-layers.IPv4MinLen-layers.EthernetLen)
	next, _ := src.Next()
	received := 0
	for t := 0.0; t < duration; t += quantum {
		for next.Time < t+quantum {
			csock.SendTo(ipServer, 7, payload)
			next, _ = src.Next()
		}
		n.Tick(quantum)
		for {
			if _, ok := ssock.Recv(); !ok { // counted, never kept
				break
			}
			received++
		}
	}
	n.RunUntilIdle()
	if received == 0 {
		return telemetry.Snapshot{}, fmt.Errorf("no datagrams delivered (rate %v, duration %v)", rate, duration)
	}
	snap := server.Snapshot().Telemetry
	for _, tr := range snap.Tracers {
		if tr.Lost > 0 {
			fmt.Fprintf(os.Stderr, "ldlptrace: warning: tracer %s overwrote %d events (raise -ring)\n",
				tr.Label, tr.Lost)
		}
	}
	return snap, nil
}

// validate re-parses the emitted Chrome trace and checks the structural
// invariants Perfetto needs: a JSON array of events, at least one
// non-metadata event, non-decreasing timestamps within every (pid, tid)
// track, and a dur that is present and non-negative on every complete
// ('X') event.
func validate(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var evs []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		TS   float64  `json:"ts"`
		Dur  *float64 `json:"dur"`
		PID  int      `json:"pid"`
		TID  int      `json:"tid"`
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		return fmt.Errorf("not a JSON event array: %w", err)
	}
	type track struct{ pid, tid int }
	last := map[track]float64{}
	payload := 0
	for i, ev := range evs {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("event %d (%s): complete event needs a non-negative dur", i, ev.Name)
			}
			payload++
		case "I", "C":
			payload++
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
		k := track{ev.PID, ev.TID}
		if prev, ok := last[k]; ok && ev.TS < prev {
			return fmt.Errorf("event %d (%s): ts %v before %v on pid %d tid %d",
				i, ev.Name, ev.TS, prev, ev.PID, ev.TID)
		}
		last[k] = ev.TS
	}
	if payload == 0 {
		return fmt.Errorf("trace has no events beyond metadata")
	}
	return nil
}
