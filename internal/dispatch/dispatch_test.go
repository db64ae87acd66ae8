package dispatch

import (
	"fmt"
	"math/rand"
	"testing"

	"ldlp/internal/layers"
)

// mkFrame builds the wire frame an inbound packet carries: Ethernet +
// IPv4 + the first transport bytes (ports for TCP/UDP). payload is the
// IP payload; extraPad appends link padding beyond TotalLen.
func mkFrame(src, dst layers.IPAddr, proto byte, id uint16, flags byte, fragOff int, payload, extraPad []byte) []byte {
	ip := layers.IPv4{
		TotalLen: layers.IPv4MinLen + len(payload),
		ID:       id, TTL: 64, Protocol: proto, Src: src, Dst: dst,
		Flags: flags, FragOff: fragOff,
	}
	f := make([]byte, layers.EthernetLen+layers.IPv4MinLen, layers.EthernetLen+layers.IPv4MinLen+len(payload)+len(extraPad))
	eth := layers.Ethernet{Dst: layers.MACAddr{2, 0, dst[0], dst[1], dst[2], dst[3]}, Src: layers.MACAddr{2, 0, src[0], src[1], src[2], src[3]}, EtherType: layers.EtherTypeIPv4}
	eth.Encode(f[:layers.EthernetLen])
	ip.Encode(f[layers.EthernetLen:])
	f = append(f, payload...)
	return append(f, extraPad...)
}

func ports(sport, dport uint16, rest int) []byte {
	p := make([]byte, 4+rest)
	p[0], p[1] = byte(sport>>8), byte(sport)
	p[2], p[3] = byte(dport>>8), byte(dport)
	return p
}

var (
	srcA = layers.IPAddr{10, 0, 0, 1}
	dstB = layers.IPAddr{10, 0, 0, 2}
)

// TestFrameKeyMatchesDecomposedKeys is the differential pin across every
// frame family — TCP, UDP, ICMP, fragments — over random inputs: the
// chunked FrameKey accumulation must equal the one-buffer control-plane
// twins (TupleKey / FragmentKey / ProtoKey). This is the unification
// bugfix's guarantee: any code placing flow state by tuple agrees with
// the engine routing frames by bytes.
func TestFrameKeyMatchesDecomposedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rndIP := func() layers.IPAddr {
		return layers.IPAddr{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	for i := 0; i < 500; i++ {
		src, dst := rndIP(), rndIP()
		sport, dport := uint16(rng.Intn(65536)), uint16(rng.Intn(65536))
		id := uint16(rng.Intn(65536))
		switch i % 4 {
		case 0: // TCP segment
			f := mkFrame(src, dst, layers.ProtoTCP, id, 0, 0, ports(sport, dport, rng.Intn(40)), nil)
			if got, want := FrameKey(f), TupleKey(src, dst, layers.ProtoTCP, sport, dport); got != want {
				t.Fatalf("TCP: FrameKey %#x != TupleKey %#x", got, want)
			}
		case 1: // UDP datagram
			f := mkFrame(src, dst, layers.ProtoUDP, id, 0, 0, ports(sport, dport, 4+rng.Intn(40)), nil)
			if got, want := FrameKey(f), TupleKey(src, dst, layers.ProtoUDP, sport, dport); got != want {
				t.Fatalf("UDP: FrameKey %#x != TupleKey %#x", got, want)
			}
		case 2: // ICMP (no ports)
			f := mkFrame(src, dst, layers.ProtoICMP, id, 0, 0, ports(sport, dport, rng.Intn(20)), nil)
			if got, want := FrameKey(f), ProtoKey(src, dst, layers.ProtoICMP); got != want {
				t.Fatalf("ICMP: FrameKey %#x != ProtoKey %#x", got, want)
			}
		case 3: // fragment (first or later, both key by IP ID)
			flags, off := byte(0x1), 0
			if rng.Intn(2) == 1 {
				flags, off = 0, 8*(1+rng.Intn(100))
			}
			proto := []byte{layers.ProtoTCP, layers.ProtoUDP, layers.ProtoICMP}[rng.Intn(3)]
			f := mkFrame(src, dst, proto, id, flags, off, ports(sport, dport, rng.Intn(40)), nil)
			if got, want := FrameKey(f), FragmentKey(src, dst, proto, id); got != want {
				t.Fatalf("frag: FrameKey %#x != FragmentKey %#x", got, want)
			}
		}
	}
}

// TestFrameKeyCanonicalizesMalformed pins the second bugfix: frames the
// decoder rejects before reading a transport header all collapse to one
// canonical key, regardless of the arbitrary bytes they carry — so two
// copies of a malformed frame differing only in padding can never land
// on different shards.
func TestFrameKeyCanonicalizesMalformed(t *testing.T) {
	want := FrameKey(nil)
	malformed := [][]byte{
		{},
		{1, 2, 3},
		make([]byte, layers.EthernetLen+layers.IPv4MinLen-1), // one byte short
		func() []byte { // truncated runt with noisy padding
			f := make([]byte, layers.EthernetLen+5)
			f[layers.EthernetLen] = 0x45
			f[len(f)-1] = 0xee
			return f
		}(),
		func() []byte { // bad IHL (< 20 bytes)
			f := mkFrame(srcA, dstB, layers.ProtoTCP, 1, 0, 0, ports(10, 20, 0), nil)
			f[layers.EthernetLen] = 0x44
			return f
		}(),
		func() []byte { // wrong IP version
			f := mkFrame(srcA, dstB, layers.ProtoTCP, 1, 0, 0, ports(10, 20, 0), nil)
			f[layers.EthernetLen] = 0x65
			return f
		}(),
	}
	for i, f := range malformed {
		if got := FrameKey(f); got != want {
			t.Errorf("malformed frame %d: key %#x, want canonical %#x", i, got, want)
		}
	}
}

// TestFrameKeyIgnoresLinkPadding: the port bytes are hashed only when
// TotalLen proves they are datagram content. A port-less datagram whose
// link padding happens to sit where ports would be must key exactly
// like the unpadded copy.
func TestFrameKeyIgnoresLinkPadding(t *testing.T) {
	bare := mkFrame(srcA, dstB, layers.ProtoUDP, 7, 0, 0, nil, nil)
	padded := mkFrame(srcA, dstB, layers.ProtoUDP, 7, 0, 0, nil, []byte{0x12, 0x34, 0x56, 0x78})
	if FrameKey(bare) != FrameKey(padded) {
		t.Error("link padding where ports would be changed the flow key")
	}
	// And a real ported frame is unaffected by padding after its payload.
	real := mkFrame(srcA, dstB, layers.ProtoUDP, 7, 0, 0, ports(10, 20, 4), nil)
	realPadded := mkFrame(srcA, dstB, layers.ProtoUDP, 7, 0, 0, ports(10, 20, 4), []byte{0xff, 0xff})
	if FrameKey(real) != FrameKey(realPadded) {
		t.Error("padding beyond TotalLen changed a ported frame's key")
	}
	if FrameKey(real) == FrameKey(bare) {
		t.Error("ported and port-less frames collided")
	}
}

// TestStaticShardMatchesModulo pins Static as the pre-policy behaviour.
func TestStaticShardMatchesModulo(t *testing.T) {
	var p Static
	for _, n := range []int{1, 2, 4, 7} {
		for key := uint64(0); key < 100; key++ {
			if p.Shard(key, n) != int(key%uint64(n)) {
				t.Fatalf("Static.Shard(%d, %d) != modulo", key, n)
			}
		}
	}
	if p.Rebalance([]int64{100, 0}) != nil {
		t.Error("Static.Rebalance returned migrations")
	}
}

// loadKeys drives count frames of bucket b through the policy.
func loadKeys(p *LoadAware, b uint64, count int, shards int) {
	for i := 0; i < count; i++ {
		p.Shard(b, shards) // key == bucket index when key < buckets
	}
}

func TestLoadAwareRebalanceMovesHotBuckets(t *testing.T) {
	p := NewLoadAware(4, 64)
	// Shard 0 holds an elephant bucket (0) and a mouse bucket (4); the
	// other shards carry light background load.
	loadKeys(p, 0, 900, 4)
	loadKeys(p, 4, 100, 4)
	loadKeys(p, 1, 50, 4)
	loadKeys(p, 2, 50, 4)
	loadKeys(p, 3, 50, 4)
	migs := p.Rebalance(nil)
	if len(migs) == 0 {
		t.Fatal("skewed load produced no migrations")
	}
	for _, mg := range migs {
		if mg.From == mg.To {
			t.Errorf("migration %+v moves nowhere", mg)
		}
		if !mg.Covers(mg.Bucket) {
			t.Errorf("migration %+v does not cover its own bucket", mg)
		}
		if mg.Covers(mg.Bucket + 1) {
			t.Errorf("migration %+v covers a neighbouring bucket", mg)
		}
		if int(p.table[mg.Bucket]) != mg.To {
			t.Errorf("table[%d] = %d after migration to %d", mg.Bucket, p.table[mg.Bucket], mg.To)
		}
	}
	// Balance must strictly improve: recompute per-shard totals under
	// the new table using the same loads.
	loads := map[uint64]int64{0: 900, 4: 100, 1: 50, 2: 50, 3: 50}
	per := make([]int64, 4)
	before := make([]int64, 4)
	for b, c := range loads {
		per[p.table[b]] += c
		before[b%4] += c
	}
	maxOf := func(v []int64) int64 {
		m := v[0]
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(per) >= maxOf(before) {
		t.Errorf("rebalance did not improve worst-shard load: %v -> %v", before, per)
	}
	// Counters reset after a full round.
	for b := range p.counts {
		if p.counts[b].Load() != 0 {
			t.Fatalf("bucket %d count not reset", b)
		}
	}
	if s := p.Stats(); s.Rebalances != 1 || s.BucketMoves != int64(len(migs)) {
		t.Errorf("stats = %+v, want 1 rebalance / %d moves", s, len(migs))
	}
}

func TestLoadAwareBelowWindowAccumulates(t *testing.T) {
	p := NewLoadAware(2, 16)
	loadKeys(p, 0, 40, 2) // below minFrames (64)
	if migs := p.Rebalance(nil); migs != nil {
		t.Fatalf("rebalance below the observation window moved %v", migs)
	}
	if p.counts[0].Load() != 40 {
		t.Error("short window reset the counts instead of accumulating")
	}
	loadKeys(p, 0, 60, 2) // now 100 total on one shard
	if migs := p.Rebalance(nil); len(migs) != 0 {
		// A single loaded bucket is the unsplittable elephant: moving it
		// cannot improve balance (destination would exceed source).
		t.Fatalf("unsplittable elephant was moved: %v", migs)
	}
}

func TestLoadAwareUnsplittableElephantStays(t *testing.T) {
	p := NewLoadAware(4, 64)
	loadKeys(p, 0, 1000, 4) // everything in one bucket
	if migs := p.Rebalance(nil); len(migs) != 0 {
		t.Fatalf("single-bucket elephant migrated: %+v", migs)
	}
}

func TestRPCDispatchKeysCallsByXID(t *testing.T) {
	const port = 2049
	p := NewRPCDispatch(port)
	rpcPayload := func(xid, typ uint32) []byte {
		pl := ports(5000, port, 12+8) // UDP header fields + 20-byte RPC header
		// UDP length/checksum left zero; the key reader only needs ports.
		hdr := pl[layers.UDPLen:]
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
		hdr[4], hdr[5], hdr[6], hdr[7] = byte(typ>>24), byte(typ>>16), byte(typ>>8), byte(typ)
		return pl
	}
	call1 := mkFrame(srcA, dstB, layers.ProtoUDP, 1, 0, 0, rpcPayload(100, 0), nil)
	call2 := mkFrame(srcA, dstB, layers.ProtoUDP, 2, 0, 0, rpcPayload(200, 0), nil)
	if p.Key(call1) == p.Key(call2) {
		t.Error("distinct XIDs on one flow keyed together — requests cannot spread")
	}
	if p.Key(call1) == FrameKey(call1) {
		t.Error("RPC call keyed like a plain frame — XID not folded in")
	}
	// Same XID keys stably.
	again := mkFrame(srcA, dstB, layers.ProtoUDP, 9, 0, 0, rpcPayload(100, 0), nil)
	if p.Key(call1) != p.Key(again) {
		t.Error("same XID keyed differently across frames")
	}
	// Everything that is not an unfragmented call to the port keys like
	// Static: replies, other ports, short payloads, fragments, TCP.
	statics := [][]byte{
		mkFrame(srcA, dstB, layers.ProtoUDP, 3, 0, 0, rpcPayload(300, 1), nil),    // reply, not a call
		mkFrame(srcA, dstB, layers.ProtoUDP, 4, 0, 0, ports(5000, 9999, 28), nil), // other port
		mkFrame(srcA, dstB, layers.ProtoUDP, 5, 0, 0, ports(5000, port, 4), nil),  // too short for the header
		mkFrame(srcA, dstB, layers.ProtoTCP, 6, 0, 0, ports(5000, port, 28), nil), // TCP
	}
	for i, f := range statics {
		if p.Key(f) != FrameKey(f) {
			t.Errorf("non-call frame %d was rekeyed", i)
		}
	}
	// Fragments must key by IP ID even when the first fragment carries a
	// complete, visible RPC call header — its siblings can't.
	frag := mkFrame(srcA, dstB, layers.ProtoUDP, 7, 0x1, 0, rpcPayload(400, 0), nil)
	if p.Key(frag) != FragmentKey(srcA, dstB, layers.ProtoUDP, 7) {
		t.Error("first fragment of an RPC call was keyed by XID — reassembly would split across shards")
	}
}

// TestLoadAwareShardBoundsDefensive: a policy built for more shards than
// the engine has must still return valid indices.
func TestLoadAwareShardBoundsDefensive(t *testing.T) {
	p := NewLoadAware(8, 32)
	for key := uint64(0); key < 64; key++ {
		if s := p.Shard(key, 2); s < 0 || s >= 2 {
			t.Fatalf("Shard(%d, 2) = %d out of range", key, s)
		}
	}
}

func ExampleStatic() {
	var p Static
	f := mkFrame(layers.IPAddr{10, 0, 0, 1}, layers.IPAddr{10, 0, 0, 2},
		layers.ProtoTCP, 1, 0, 0, ports(1234, 80, 16), nil)
	fmt.Println(p.Name(), p.Shard(p.Key(f), 4) < 4)
	// Output: static true
}

// TestPoliciesHotPathAllocFree pins the acceptance bar directly: keying
// and sharding a frame allocates nothing, for every policy.
func TestPoliciesHotPathAllocFree(t *testing.T) {
	frame := mkFrame(srcA, dstB, layers.ProtoUDP, 3, 0, 0, ports(1234, 2049, 28), nil)
	policies := []Policy{Static{}, NewLoadAware(4, 64), NewRPCDispatch(2049)}
	for _, p := range policies {
		p := p
		if n := testing.AllocsPerRun(200, func() {
			key := p.Key(frame)
			if p.Shard(key, 4) > 3 {
				t.Fail()
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocs per Key+Shard, want 0", p.Name(), n)
		}
	}
}
