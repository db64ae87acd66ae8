// Command chaos drives the in-memory netstack under deterministic link
// impairment and verifies the end-to-end invariants the chaos test
// suite asserts: the TCP stream arrives byte-identical, delivered
// datagrams are byte-identical to sent ones, every injected fault is
// visible in an impairment or drop counter, and no mbuf leaks. It exits
// non-zero on any violation, so it doubles as a CI smoke.
//
// Usage:
//
//	chaos [-mix all|bernoulli|bursty|...|every] [-discipline ldlp|conventional]
//	      [-shards N] [-seed N] [-rounds N] [-v]
//
// -mix every (the default) runs each preset in sequence. (The latency
// comparison under swept link loss is ldlpreport's figure_loss.)
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"

	"ldlp/internal/core"
	"ldlp/internal/faults"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
)

var (
	ipA = layers.IPAddr{10, 9, 0, 1}
	ipB = layers.IPAddr{10, 9, 0, 2}
)

func main() {
	var (
		mix     = flag.String("mix", "every", "impairment preset, or 'every'")
		disc    = flag.String("discipline", "ldlp", "receive discipline: ldlp or conventional")
		shards  = flag.Int("shards", 1, "receive shards on the server host (LDLP only)")
		seed    = flag.Int64("seed", 0xC0FFEE, "impairment seed (runs replay exactly per seed)")
		rounds  = flag.Int("rounds", 40, "traffic rounds per scenario")
		verbose = flag.Bool("v", false, "print per-impairment and per-host counters")
	)
	flag.Parse()

	var d core.Discipline
	switch *disc {
	case "ldlp":
		d = core.LDLP
	case "conventional":
		d = core.Conventional
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown discipline %q\n", *disc)
		os.Exit(2)
	}

	presets := faults.Presets()
	names := []string{*mix}
	if *mix == "every" {
		names = faults.PresetNames()
	} else if _, ok := presets[*mix]; !ok {
		fmt.Fprintf(os.Stderr, "chaos: unknown mix %q (have %v)\n", *mix, faults.PresetNames())
		os.Exit(2)
	}

	failed := false
	for _, name := range names {
		errs := runScenario(presets[name], d, *shards, *seed, *rounds, *verbose, name)
		if len(errs) == 0 {
			fmt.Printf("ok   %-12s %s shards=%d\n", name, *disc, *shards)
			continue
		}
		failed = true
		fmt.Printf("FAIL %-12s %s shards=%d\n", name, *disc, *shards)
		for _, err := range errs {
			fmt.Printf("     %v\n", err)
		}
	}

	if failed {
		os.Exit(1)
	}
}

// runScenario drives TCP, small-UDP and fragmented-UDP traffic between
// two impaired hosts and returns every invariant violation found.
//
// A TCP end that gives up with ErrTimeout after tcpMaxRetries unanswered
// tries is the stack working as documented whenever the link can lose
// that many frames in a row (under bursty's LossBad 0.8 a fraction of
// seeds do). Under such a preset it is an outcome with invariants of its
// own, checked below — which seeds it falls on says nothing about the
// stack — and under a preset that loses nothing it can only be a bug.
func runScenario(cfg faults.Config, d core.Discipline, shards int, seed int64, rounds int, verbose bool, name string) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	// A link takes a frame away by a drop model, or by a bit flip the
	// receiver's checksum then discards.
	lossy := cfg.Loss > 0 || cfg.GE != nil || len(cfg.Partitions) > 0 || cfg.CorruptProb > 0

	mbuf.ResetPool()
	n := netstack.NewNet()
	mkOpts := func(sh int) netstack.Options {
		o := netstack.DefaultOptions(d)
		o.MTU = 600
		o.RxShards = sh
		o.TelemetryRing = 1 << 15 // the whole run, so the drop ledger is checkable
		return o
	}
	a := n.AddHost("client", ipA, mkOpts(1))
	b := n.AddHost("server", ipB, mkOpts(shards))
	defer n.Close()
	injs := n.ImpairAll(cfg, seed)

	l, err := b.ListenTCP(80)
	if err != nil {
		return []error{err}
	}
	cli := a.DialTCP(ipB, 80)
	var srv *netstack.TCPSock
	// 30 s: past the ~20 s a SYN takes to give up, so the loop ends on an
	// outcome, not on its own bound.
	for i := 0; i < 600 && srv == nil && cli.Err() == nil; i++ {
		n.Tick(0.05)
		srv = l.Accept()
	}
	if srv == nil && cli.Err() == nil {
		return []error{fmt.Errorf("TCP handshake never completed (client %s)", cli.State())}
	}
	tcpDied := func() bool { return cli.Err() != nil || (srv != nil && srv.Err() != nil) }

	utx, _ := a.UDPSocket(1000)
	urx, _ := b.UDPSocket(2000)
	bigTx, _ := a.UDPSocket(3000)
	bigRx, _ := b.UDPSocket(3100)
	const bigSize = 2500

	sentSmall := make(map[string]bool)
	sentBig := make(map[byte]bool)
	var gotSmall []string
	var gotBig [][]byte
	var want, got bytes.Buffer
	rbuf := make([]byte, 8192)
	drain := func() {
		for srv != nil {
			nr := srv.Recv(rbuf)
			if nr <= 0 {
				break
			}
			got.Write(rbuf[:nr])
		}
		for {
			dg, ok := urx.Recv()
			if !ok {
				break
			}
			gotSmall = append(gotSmall, string(dg.Data))
		}
		for {
			dg, ok := bigRx.Recv()
			if !ok {
				break
			}
			// Kept across later pumps; dg.Data is the socket's until then.
			gotBig = append(gotBig, bytes.Clone(dg.Data))
		}
	}

	for r := 0; r < rounds; r++ {
		chunk := make([]byte, 300)
		for i := range chunk {
			chunk[i] = byte(r*31 + i)
		}
		if !tcpDied() {
			if err := cli.Send(chunk); err != nil {
				fail("round %d: TCP send: %v", r, err)
				return errs
			}
			want.Write(chunk)
		}
		msg := fmt.Sprintf("dgram-%04d", r)
		sentSmall[msg] = true
		utx.SendTo(ipB, 2000, []byte(msg))
		if r%8 == 0 {
			v := byte(0x40 + r/8)
			sentBig[v] = true
			bigTx.SendTo(ipB, 3100, bytes.Repeat([]byte{v}, bigSize))
		}
		n.Tick(0.05)
		drain()
	}
	for i := 0; i < 600 && got.Len() < want.Len() && !tcpDied(); i++ {
		n.Tick(0.25)
		drain()
	}
	n.Tick(31) // expire stale partial datagrams, flush delayed frames
	for i := 0; i < 4; i++ {
		n.Tick(0.5)
	}
	drain()

	// Each host ran one connection and never closed it, so its books
	// read exactly one of: alive (a PCB, no timeout drop) or gave up (one
	// timeout drop, PCB reaped). A nil srv is a handshake that gave up
	// before Accept: the server holds an embryonic connection at most.
	snaps := []netstack.Snapshot{a.Snapshot(), b.Snapshot()}
	for i, sock := range []*netstack.TCPSock{cli, srv} {
		s := snaps[i]
		drops, pcbs := s.Counters.TimeoutDrops, int64(s.Flows.PCBs)
		switch {
		case sock == nil:
			if drops+pcbs > 1 {
				fail("%s: never-accepted connection left %d timeout drops and %d PCBs", s.Name, drops, pcbs)
			}
		case sock.Err() == nil:
			if drops != 0 || pcbs != 1 {
				fail("%s: live connection, but %d timeout drops and %d PCBs", s.Name, drops, pcbs)
			}
		case !errors.Is(sock.Err(), netstack.ErrTimeout) || !lossy:
			fail("TCP connection died on %s under a link that loses nothing: %v", s.Name, sock.Err())
		case drops != 1 || pcbs != 0:
			fail("%s: connection gave up, but %d timeout drops and %d PCBs (want 1 and reaped)", s.Name, drops, pcbs)
		}
		// Every counted drop has its reason-coded event and vice versa
		// (DropEvents is nil if the flight recorder lost any).
		if !maps.Equal(s.Drops, s.DropEvents) {
			fail("%s: counted drops %v, recorded drop events %v", s.Name, s.Drops, s.DropEvents)
		}
	}
	if tcpDied() {
		if !bytes.HasPrefix(want.Bytes(), got.Bytes()) {
			fail("TCP gave up, but the %d bytes received are not a prefix of the %d sent", got.Len(), want.Len())
		}
		if verbose {
			fmt.Printf("  %-12s TCP gave up after %d of %d bytes (cli=%v)\n", name, got.Len(), want.Len(), cli.Err())
		}
	} else if !bytes.Equal(got.Bytes(), want.Bytes()) {
		fail("TCP stream mismatch: got %d bytes, want %d", got.Len(), want.Len())
	}
	for _, m := range gotSmall {
		if !sentSmall[m] {
			fail("datagram %q arrived but was never sent intact", m)
		}
	}
	for _, dg := range gotBig {
		if len(dg) != bigSize || !sentBig[dg[0]] {
			fail("reassembled datagram wrong (%d bytes)", len(dg))
			continue
		}
		for i, x := range dg {
			if x != dg[0] {
				fail("reassembled datagram corrupt at byte %d", i)
				break
			}
		}
	}
	if h := n.HeldFrames(); h != 0 {
		fail("%d frames still held by delay impairment", h)
	}
	// The per-injector loop below is the frame ledger. It is vacuous —
	// and used to pass silently — when an impaired preset registered no
	// injectors or an injector saw zero frames; both now fail the run.
	if cfg.Enabled() && len(injs) == 0 {
		fail("preset %s impairs traffic but registered no injectors; frame ledger unchecked", name)
	}
	if snaps[0].Counters.FramesOut == 0 || snaps[1].Counters.FramesIn == 0 {
		fail("scenario moved no frames (client out=%d, server in=%d); ledger and delivery checks are vacuous",
			snaps[0].Counters.FramesOut, snaps[1].Counters.FramesIn)
	}
	for i, h := range []*netstack.Host{a, b} { // host order, not map order: same seed, same output
		ip, inj := h.IP(), injs[h.IP()]
		if inj == nil {
			continue
		}
		s := inj.Stats()
		if s.Frames == 0 {
			fail("%v: injector saw zero frames; its ledger check is vacuous", ip)
		}
		if s.Dropped != s.LossDrops+s.BurstDrops+s.PartitionDrops {
			fail("%v: drop attribution broken: %+v", ip, s)
		}
		if in := snaps[i].Counters.FramesIn; in != s.Frames-s.Dropped+s.Duplicated {
			fail("%v: FramesIn=%d, want %d-%d+%d", ip, in, s.Frames, s.Dropped, s.Duplicated)
		}
		if verbose {
			fmt.Printf("  %-12s %v: %+v\n", name, ip, s)
		}
	}
	// Telemetry liveness: the flight recorder must have watched the same
	// run the counters did. Under LDLP every delivered frame passes
	// through a batch observation, so a server that moved frames with an
	// empty ldlp-batch histogram means the instrumentation fell off the
	// receive path (another vacuous-check hazard: traces would read as
	// "no batches" instead of failing).
	if sb := snaps[1]; d == core.LDLP && sb.Counters.FramesIn > 0 {
		if bh, ok := sb.Telemetry.Hist("ldlp-batch"); !ok || bh.Count == 0 {
			fail("server moved %d frames but recorded no ldlp-batch observations; telemetry is dead", sb.Counters.FramesIn)
		}
	}
	if verbose {
		for _, s := range snaps {
			c := s.Counters
			fmt.Printf("  %-12s %s: in=%d out=%d badEther=%d badIP=%d badTCP=%d badUDP=%d rexmt=%d timeouts=%d reasmTO=%d\n",
				name, s.Name, c.FramesIn, c.FramesOut, c.BadEther, c.BadIP, c.BadTCP, c.BadUDP,
				c.Retransmits, c.TimeoutDrops, c.ReassemblyTimeouts)
			for _, e := range s.Telemetry.Hists {
				hs := e.Hist.Summary()
				if hs.Count == 0 {
					continue
				}
				fmt.Printf("  %-12s %s: hist %-10s count=%d mean=%.1f p50=%.1f p99=%.1f max=%d\n",
					name, s.Name, e.Name, hs.Count, hs.Mean, hs.P50, hs.P99, hs.Max)
			}
		}
	}
	if p := snaps[1].Pool; p.InUse != 0 {
		fail("mbuf leak: %+v", p)
	}
	return errs
}
