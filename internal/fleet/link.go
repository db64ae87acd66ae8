package fleet

import (
	"fmt"

	"ldlp/internal/faults"
	"ldlp/internal/mbuf"
)

// LinkConfig models one directed link of the peer graph: propagation
// delay (fixed + jittered), serialization at a finite bandwidth, and an
// optional per-link fault config. The zero value is an ideal link
// (instant, lossless).
type LinkConfig struct {
	// Latency is the fixed one-way propagation delay in seconds.
	Latency float64
	// Jitter adds a uniform [0, Jitter) seconds per frame, drawn from a
	// per-link faults.Stream (deterministic per fleet seed).
	Jitter float64
	// Bandwidth in bits/second; frames serialize FIFO at this rate
	// before propagation. 0 means infinite (no serialization delay).
	Bandwidth float64
	// Faults, when non-nil, runs every frame on this link through a
	// seeded faults.Injector (loss, bursts, duplication, reordering,
	// extra delay, bit corruption, partitions), seeded from the fleet
	// seed and the (src, dst) pair.
	Faults *faults.Config
}

// LANLink is a datacenter-flavoured preset: 50 µs propagation at
// 1 Gbit/s.
func LANLink() LinkConfig {
	return LinkConfig{Latency: 50e-6, Bandwidth: 1e9}
}

// WANLink is a wide-area preset: 10 ms propagation, 2 ms jitter,
// 100 Mbit/s.
func WANLink() LinkConfig {
	return LinkConfig{Latency: 10e-3, Jitter: 2e-3, Bandwidth: 100e6}
}

// FaultyLink overlays a named faults preset (see faults.PresetNames) on
// a base link. Panics on an unknown preset name, mirroring faults.New's
// fail-fast contract.
func FaultyLink(base LinkConfig, preset string) LinkConfig {
	cfg, ok := faults.Presets()[preset]
	if !ok {
		panic(fmt.Sprintf("fleet: unknown faults preset %q", preset))
	}
	base.Faults = &cfg
	return base
}

// heldReorder is a frame parked by a reorder verdict: it is released
// after span later frames on the same link have overtaken it.
type heldReorder struct {
	m      *mbuf.Mbuf
	sentAt float64
	span   int
}

// linkState is the mutable per-directed-link runtime: the fault
// injector and jitter stream, the serialization
// horizon, and the reorder holdback queue. Links materialize on first
// use only because a mesh has N² of them (a million at 1000 nodes) and
// a run touches a fraction; each one is small. Lazily is still
// deterministic: the event order that first touches a link is.
type linkState struct {
	src, dst  int32
	inj       *faults.Injector
	jit       faults.Stream
	busyUntil float64
	held      []heldReorder
}

func (f *Fleet) link(src, dst int32) *linkState {
	key := uint64(src)<<32 | uint64(uint32(dst))
	if ls, ok := f.links[key]; ok {
		return ls
	}
	ls := &linkState{
		src: src,
		dst: dst,
		jit: faults.NewStream(uint64(f.cfg.Seed)*0x100000001b3 ^ key),
	}
	if fc := f.cfg.Link.Faults; fc != nil {
		seed := f.cfg.Seed*1_000_003 + int64(src)*1_000_000 + int64(dst) + 1
		ls.inj = faults.New(*fc, seed)
	}
	f.links[key] = ls
	f.linkList = append(f.linkList, ls)
	return ls
}
