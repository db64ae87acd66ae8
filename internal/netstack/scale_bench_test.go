package netstack

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// Accept-path scale benchmark: a listener is SYN-flooded into a
// million established connections, then serves steady-state
// small-message traffic — the "millions of users" shape the ROADMAP
// aims the flow table at. The client side is synthetic: handshake
// frames are hand-crafted from spoofed source addresses (one real
// client host could never exceed 64k ephemeral ports), SYN-ACKs leave
// for nonexistent MACs and are freed by the pump, and the completing
// ACKs are built by reading each embryonic PCB's ISS the way the other
// hotpath benchmarks read PCB state. TestAcceptScaleSteadyStateAllocFree
// floods to 10k flows on every `go test`, so all of this machinery runs
// on every push; the benchmark (10k under -short) runs the full million.

const (
	scaleFlowsFull  = 1_000_000
	scaleFlowsShort = 10_000
	scalePattern    = 1 << 15 // steady-state access-pattern length
	scaleListenPort = 80
)

// scaleState caches the established network across the benchmark
// framework's b.N re-runs: rebuilding a million connections per timing
// attempt would swamp the measurement.
type scaleState struct {
	net     *Net
	hb      *Host
	flows   int
	pattern [][]byte // pre-built bare-ACK wire frames, Zipf access order
}

var scaleCache *scaleState

// scaleTuple spreads flow c across spoofed (source IP, source port)
// pairs, bijectively so every flow is a distinct connection.
func scaleTuple(c int) (layers.IPAddr, uint16) {
	ipIdx := c / 50_000
	port := uint16(c%50_000) + 10_000
	return layers.IPAddr{172, 16, byte(ipIdx >> 8), byte(ipIdx)}, port
}

// buildRawSegment hand-builds the wire bytes of one TCP segment.
func buildRawSegment(src layers.IPAddr, sport uint16, dst layers.IPAddr, dport uint16, seq, ack uint32, flags byte) []byte {
	buf := make([]byte, layers.EthernetLen+layers.IPv4MinLen+layers.TCPMinLen)
	eth := layers.Ethernet{Dst: MACFor(dst), Src: MACFor(src), EtherType: layers.EtherTypeIPv4}
	eth.Encode(buf)
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + layers.TCPMinLen,
		TTL:      64, Protocol: layers.ProtoTCP, Src: src, Dst: dst,
	}
	ip.Encode(buf[layers.EthernetLen:])
	th := layers.TCP{
		SrcPort: sport, DstPort: dport,
		Seq: seq, Ack: ack, Flags: flags, Window: tcpWindow,
	}
	th.Encode(buf[layers.EthernetLen+layers.IPv4MinLen:], nil, src, dst)
	return buf
}

// setupScale floods the listener to `flows` established connections
// and pre-builds the steady-state access pattern.
func setupScale(b testing.TB, flows int) *scaleState {
	if scaleCache != nil && scaleCache.flows == flows {
		return scaleCache
	}
	scaleCache = nil
	mbuf.ResetPool()
	n := NewNet()
	hb := n.AddHost("scale-srv", layers.IPAddr{10, 9, 0, 1}, DefaultOptions(core.Conventional))
	l, err := hb.ListenTCP(scaleListenPort)
	if err != nil {
		b.Fatal(err)
	}

	// SYN-flood in backlog-sized waves: SYNs, then the handshake-
	// completing ACKs (Ack = each embryonic PCB's ISS+1), then Accept
	// drains the wave before the next one can overflow the backlog.
	established := 0
	for base := 0; base < flows; base += tcpBacklog {
		waveEnd := min(base+tcpBacklog, flows)
		for c := base; c < waveEnd; c++ {
			src, sport := scaleTuple(c)
			clientISS := uint32(0x10000 + c)
			syn := buildRawSegment(src, sport, hb.ip, scaleListenPort, clientISS, 0, layers.TCPSyn)
			hb.deliver(mbuf.FromBytes(syn))
		}
		for c := base; c < waveEnd; c++ {
			src, sport := scaleTuple(c)
			pcb := hb.findPCB(fourTuple{raddr: src, rport: sport, lport: scaleListenPort})
			if pcb == nil {
				b.Fatalf("flow %d: SYN did not create a PCB", c)
			}
			clientISS := uint32(0x10000 + c)
			ack := buildRawSegment(src, sport, hb.ip, scaleListenPort, clientISS+1, pcb.iss+1, layers.TCPAck)
			hb.deliver(mbuf.FromBytes(ack))
		}
		for c := base; c < waveEnd; c++ {
			s := l.Accept()
			if s == nil {
				b.Fatalf("wave at %d: connection %d not accepted", base, c)
			}
			if !s.Established() {
				b.Fatalf("accepted connection %d not established", c)
			}
			established++
		}
		// Free the SYN-ACKs addressed to the spoofed (nonexistent)
		// clients before the wire queue grows without bound.
		n.RunUntilIdle()
	}
	if established != flows || hb.numPCBs() != flows {
		b.Fatalf("established %d / PCBs %d, want %d", established, hb.numPCBs(), flows)
	}
	if dropped := l.DroppedCount(); dropped != 0 {
		b.Fatalf("listener dropped %d SYNs during the flood", dropped)
	}
	if st := mbuf.PoolStats(); st.InUse != 0 {
		b.Fatalf("mbuf leak after establishing %d flows: %+v", flows, st)
	}

	// Steady-state pattern: Zipf-skewed flow popularity (DEC-TR-592
	// locality — a handful of hot flows absorb most traffic) over the
	// full population, as pre-built bare-ACK frames.
	r := rand.New(rand.NewSource(42))
	z := rand.NewZipf(r, 1.2, 1, uint64(flows-1))
	acks := map[int][]byte{}
	pattern := make([][]byte, scalePattern)
	for i := range pattern {
		c := int(z.Uint64())
		frame, ok := acks[c]
		if !ok {
			src, sport := scaleTuple(c)
			pcb := hb.findPCB(fourTuple{raddr: src, rport: sport, lport: scaleListenPort})
			frame = buildBareAck(pcb, src, hb.ip)
			acks[c] = frame
		}
		pattern[i] = frame
	}
	scaleCache = &scaleState{net: n, hb: hb, flows: flows, pattern: pattern}
	return scaleCache
}

// mergedProbeDepth merges every shard's flow-table probe-depth
// histogram (white-box: the per-shard stats are single-writer, read
// here at quiescence).
func mergedProbeDepth(h *Host) telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	for _, ts := range h.tshards {
		s.Merge(ts.pcbs.DepthHist())
	}
	return s
}

// cacheTallies reads the single-entry PCB cache's hit/miss counters.
func cacheTallies(h *Host) (hits, misses int64) {
	fs := h.FlowStats()
	return fs.CacheHits, fs.CacheMisses
}

// The flow table's half of the zero-allocation gate: with 10k
// established flows behind one listener, a steady-state segment — PCB
// cache miss, open-addressed table probe and all — takes the fast path
// without allocating.
func TestAcceptScaleSteadyStateAllocFree(t *testing.T) {
	sc := setupScale(t, scaleFlowsShort)
	hb := sc.hb
	lap := func() {
		for _, frame := range sc.pattern {
			hb.deliver(mbuf.FromBytes(frame))
		}
	}
	lap() // warm the delivery path
	before := hb.Counters.TCPFastPath
	// One run is a whole lap of the access pattern, not one segment:
	// AllocsPerRun reports a whole number per run, so a step only some
	// segments take (a PCB-cache miss into the table) would round to 0.
	const laps = 3
	if allocs := testing.AllocsPerRun(laps, lap); allocs != 0 && !raceBuild() {
		t.Errorf("%v allocations per %d steady-state segments at %d flows, want 0", allocs, len(sc.pattern), sc.flows)
	}
	// AllocsPerRun makes one warm-up call of its own.
	if got, want := hb.Counters.TCPFastPath-before, int64((laps+1)*len(sc.pattern)); got != want {
		t.Errorf("fast path took %d of %d segments", got, want)
	}
	checkNoLeaks(t)
}

// raceBuild reports whether this binary was built with -race. Under the
// race detector sync.Pool sheds a quarter of what it is handed, at
// random, so the Packet and mbuf overflow pools allocate afresh and a
// whole-lap allocation count reads in the thousands with no defect
// present; the gate is the plain build's.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// BenchmarkAcceptScale measures the steady-state small-message receive
// path with a SYN-flood-established connection population (1M flows;
// 10k under -short): every delivered segment must take the TCP fast
// path at 0 allocs/op — the flow table's no-per-lookup-allocation
// promise at scale — and reports the PCB cache's hit rate and
// p99-probe-depth, failing outright when probe chains grow past the
// displacement bound.
func BenchmarkAcceptScale(b *testing.B) {
	flows := scaleFlowsFull
	if testing.Short() {
		flows = scaleFlowsShort
	}
	sc := setupScale(b, flows)
	hb := sc.hb

	// Warm the delivery path, then snapshot: metrics cover warmup +
	// timed ops (both pure steady-state), so they are stable even at
	// -benchtime=1x where b.N == 1.
	depthBase := mergedProbeDepth(hb)
	hitsBase, missesBase := cacheTallies(hb)
	fastBase := hb.Counters.TCPFastPath
	warmed := int64(len(sc.pattern))
	for _, frame := range sc.pattern {
		hb.deliver(mbuf.FromBytes(frame))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.deliver(mbuf.FromBytes(sc.pattern[i%len(sc.pattern)]))
	}
	b.StopTimer()

	if got, want := hb.Counters.TCPFastPath-fastBase, warmed+int64(b.N); got != want {
		b.Fatalf("fast path took %d of %d steady-state segments", got, want)
	}
	if st := mbuf.PoolStats(); st.InUse != 0 {
		b.Fatalf("mbuf leak in steady state: %+v", st)
	}

	hits, misses := cacheTallies(hb)
	hits -= hitsBase
	misses -= missesBase
	if hits+misses <= 0 {
		b.Fatal("PCB cache saw no lookups in steady state")
	}
	b.ReportMetric(float64(hits)/float64(hits+misses), "flowcache-hit-rate")

	depth := mergedProbeDepth(hb)
	for i := range depth.Buckets {
		depth.Buckets[i] -= depthBase.Buckets[i]
	}
	depth.Count -= depthBase.Count
	depth.Sum -= depthBase.Sum
	p99 := depth.Quantile(0.99)
	b.ReportMetric(p99, "p99-probe-depth")
	b.ReportMetric(float64(sc.flows), "flows")
	// The displacement bound promises lookups stay within a handful of
	// groups no matter the population; a p99 beyond it means probing
	// degraded.
	if p99 > 16 {
		b.Fatalf("p99 probe depth %.1f: lookup locality degraded", p99)
	}
}
