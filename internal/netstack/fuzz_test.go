package netstack

import (
	"maps"
	"testing"
	"time"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
)

// FuzzRxPath feeds arbitrary frames into a server's receive path under
// every discipline and shard count, and holds every
// run to the same contract: no panic, done inside rxFuzzBound, no mbuf
// outstanding after Close, every shard's cached PCB live in that shard's
// own table at each quiescent point, counted drops equal to recorded
// drop events reason by reason, and one drop ledger for all.
//
// An input is a list of records. A record starting with a zero byte is
// a Tick (the host timers); any
// other first byte is a repeat count, followed by a 2-byte big-endian
// length and that many frame bytes, delivered that many times. At most
// rxFuzzFrames frames and rxFuzzTicks ticks are taken from one input.
//
// The ledger is compared across shard counts only where the equivalence
// suite compares it: a run whose listener backlog overflowed, or a
// sharded run that reinjected a reassembled TCP segment, depends on how
// the shards interleaved, so those runs are held to the first three
// properties alone. Conventional and single-shard LDLP process in one
// order and must always agree.
func FuzzRxPath(f *testing.F) {
	// Short TCP messages and short windows keep the seeds a few KB: the
	// fuzzer minimizes every new input byte by byte, running all
	// configs per try, so a large seed would spend the run minimizing.
	script := genEquivScript(1, 32)
	script.tap = true
	captured := runEquivWorkload(f, script, 1, nil).toServer
	for _, seed := range rxFuzzSeeds(captured) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		steps := parseRxFuzz(in)
		done := make(chan []rxFuzzResult, 1)
		go func() { done <- runRxFuzz(steps) }()
		var res []rxFuzzResult
		select {
		case res = <-done:
		case <-time.After(rxFuzzBound):
			t.Fatalf("input (%d steps) still running after %v", len(steps), rxFuzzBound)
		}
		scoped := false
		for _, r := range res {
			if r.inUse != 0 {
				t.Errorf("%s: %d mbufs in use after Close", r.name, r.inUse)
			}
			for _, fault := range r.cacheFaults {
				t.Errorf("%s: %s", r.name, fault)
			}
			// Bounded inputs record a few hundred events per tracer at
			// most; the default ring holds 1024, so events is never nil.
			if !maps.Equal(r.ledger, r.events) {
				t.Errorf("%s: counted drops %v, recorded drop events %v", r.name, r.ledger, r.events)
			}
			scoped = scoped || r.listenOverflow
		}
		base := res[0]
		for _, r := range res[1:] {
			if r.shards > 1 && (scoped || r.tcpReinjects > 0) {
				continue
			}
			for _, k := range rxLedgerKeys(base.ledger, r.ledger) {
				if base.ledger[k] != r.ledger[k] {
					t.Errorf("%s: ledger[%s] = %d, %s has %d", r.name, k, r.ledger[k], base.name, base.ledger[k])
				}
			}
		}
	})
}

// Input bounds. Of the rxFuzzFrames frames at most maxFragStates may be
// IP fragments, so no reassembly state is ever evicted at the cap (one
// shard would evict where four would not).
const (
	rxFuzzFrames = 96
	rxFuzzTicks  = 128
	rxFuzzTickDt = 0.25 // rxFuzzTicks ticks time out an unanswered passive open; 64 do not
	rxFuzzBound  = 10 * time.Second
)

// rxFuzzConfigs is every receive-path configuration an input runs
// under; the first is the ledger baseline.
var rxFuzzConfigs = []rxFuzzConfig{
	{"conventional", core.Conventional, 1},
	{"ldlp", core.LDLP, 1},
	{"ldlp-rx2", core.LDLP, 2},
	{"ldlp-rx4", core.LDLP, 4},
}

type rxFuzzConfig struct {
	name   string
	disc   core.Discipline
	shards int
}

// parseRxFuzz returns the frames to deliver in order, a nil entry at
// each Tick.
func parseRxFuzz(in []byte) [][]byte {
	var steps [][]byte
	frames, frags, ticks := 0, 0, 0
	for len(in) > 0 {
		rep := int(in[0])
		if rep == 0 {
			in = in[1:]
			if ticks++; ticks <= rxFuzzTicks {
				steps = append(steps, nil)
			}
			continue
		}
		if len(in) < 3 {
			break
		}
		n := min(int(in[1])<<8|int(in[2]), len(in)-3)
		frame := in[3 : 3+n]
		in = in[3+n:]
		for ; rep > 0 && frames < rxFuzzFrames; rep-- {
			if isFragmentFrame(frame) {
				if frags == maxFragStates {
					break
				}
				frags++
			}
			steps = append(steps, frame)
			frames++
		}
	}
	return steps
}

// isFragmentFrame reports whether frame carries an IP fragment: more
// fragments set, or a nonzero offset.
func isFragmentFrame(frame []byte) bool {
	if len(frame) < layers.EthernetLen+layers.IPv4MinLen {
		return false
	}
	ip := frame[layers.EthernetLen:]
	return ip[6]&0x3f != 0 || ip[7] != 0
}

type rxFuzzResult struct {
	name           string
	shards         int
	ledger, events map[string]int64 // Snapshot.Drops, Snapshot.DropEvents
	inUse          int64
	listenOverflow bool
	tcpReinjects   int64
	cacheFaults    []string // pcbCacheFaults at each quiescent point
}

// runRxFuzz replays steps against a fresh server under every config.
func runRxFuzz(steps [][]byte) []rxFuzzResult {
	out := make([]rxFuzzResult, len(rxFuzzConfigs))
	for i, cfg := range rxFuzzConfigs {
		out[i] = runRxFuzzConfig(steps, cfg)
	}
	return out
}

func runRxFuzzConfig(steps [][]byte, cfg rxFuzzConfig) rxFuzzResult {
	mbuf.ResetPool()
	n := NewNet()
	o := DefaultOptions(cfg.disc)
	o.RxShards = cfg.shards
	// The server the equivalence workload talks to: the captured seeds
	// address these ports.
	b := n.AddHost("server", ipB, o)
	l, _ := b.ListenTCP(80)
	for _, port := range []uint16{2000, 2001, 2002, 3100} {
		b.UDPSocket(port)
	}
	res := rxFuzzResult{name: cfg.name, shards: cfg.shards}
	for _, frame := range steps {
		if frame == nil {
			n.RunUntilIdle() // Tick's timers run at quiescence
			res.cacheFaults = append(res.cacheFaults, pcbCacheFaults(b)...)
			n.Tick(rxFuzzTickDt)
			continue
		}
		b.deliver(mbuf.FromBytes(frame))
	}
	n.RunUntilIdle()
	res.cacheFaults = append(res.cacheFaults, pcbCacheFaults(b)...)

	s := b.Snapshot()
	res.ledger, res.events = s.Drops, s.DropEvents
	res.listenOverflow = l.DroppedCount() > 0
	res.tcpReinjects = s.Counters.TCPReinjects
	n.Close()
	res.inUse = mbuf.PoolStats().InUse
	return res
}

// rxLedgerKeys is the union of two ledgers' keys.
func rxLedgerKeys(a, b map[string]int64) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// rxFuzzSeeds cuts the equivalence workload's captured server traffic
// (nil entries are Ticks) into corpus inputs, and adds two hand-built
// ones for the PCB cache's invalidation sites: a connection reset and
// reopened on one 4-tuple, and one its timers abandon and reopened.
func rxFuzzSeeds(captured [][]byte) [][]byte {
	enc := func(steps [][]byte, reps []int) []byte {
		var out []byte
		for i, fr := range steps {
			if fr == nil {
				out = append(out, 0)
				continue
			}
			rep := 1
			if reps != nil {
				rep = reps[i]
			}
			out = append(out, byte(rep), byte(len(fr)>>8), byte(len(fr)))
			out = append(out, fr...)
		}
		return out
	}
	window := func(from, frames int) []byte {
		var steps [][]byte
		for i := from; i < len(captured) && frames > 0; i++ {
			if captured[i] != nil {
				frames--
			}
			steps = append(steps, captured[i])
		}
		return enc(steps, nil)
	}
	// Indexes of interesting captured frames: the first SYN, the first
	// IP fragment, the first ICMP message.
	syn, frag, icmp := -1, -1, -1
	for i, fr := range captured {
		if len(fr) < layers.EthernetLen+layers.IPv4MinLen {
			continue
		}
		ip := fr[layers.EthernetLen:]
		switch {
		case frag < 0 && isFragmentFrame(fr):
			frag = i
		case icmp < 0 && ip[9] == layers.ProtoICMP:
			icmp = i
		case syn < 0 && ip[9] == layers.ProtoTCP && len(ip) > layers.IPv4MinLen+13 && ip[layers.IPv4MinLen+13]&layers.TCPSyn != 0:
			syn = i
		}
	}
	seeds := [][]byte{{}, window(0, 24)}
	for _, at := range []int{frag, icmp} {
		if at >= 0 {
			seeds = append(seeds, window(max(0, at-4), 12))
		}
	}
	if syn < 0 {
		return seeds
	}

	// Reset and reopen: SYN, RST on its tuple, the same SYN again.
	s := captured[syn]
	ip := s[layers.EthernetLen:]
	sport := uint16(ip[layers.IPv4MinLen])<<8 | uint16(ip[layers.IPv4MinLen+1])
	rst := buildRawSegment(ipA, sport, ipB, 80, 1, 0, layers.TCPRst)
	seeds = append(seeds, enc([][]byte{s, rst, s, nil, s}, nil))

	// Timeout and reopen: the SYN twice (the retransmission is what
	// caches the new PCB), enough Ticks for the unanswered connection to
	// give up, the same SYN again.
	steps := [][]byte{s, s}
	for i := 0; i < rxFuzzTicks; i++ {
		steps = append(steps, nil)
	}
	return append(seeds, enc(append(steps, s), nil))
}
