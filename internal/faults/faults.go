// Package faults is a deterministic, seeded link-impairment model: the
// chaos layer the paper's §3.3 batching argument needs to be tested
// against. The on-line batching rule ("process all currently available
// messages"), the 500-packet buffer and every recovery path above the
// link — TCP RTO/persist/TIME-WAIT, IP reassembly, SSCOP selective
// retransmission — only show their real behaviour under loss, delay,
// duplication, reordering, corruption and partitions; this package
// produces those impairments reproducibly.
//
// An Injector decides: given the frame sequence it is shown (and the
// simulated clock), Frame answers "what happens to this frame". For a
// carrier whose frames are mbuf chains (netstack.Net per destination,
// fleet per link) Apply also does what the verdict does to buffers —
// free, copy, flip — so that rule lives here once; timing stays with the
// carrier, and sim's faulted traffic source, which has no buffers, uses
// Frame alone. Decisions come from a private seeded Stream, so the same
// seed and the same frame sequence yield the same impairment pattern
// under any discipline or shard count; that is what lets the chaos suite
// assert observational equivalence across schedules while the link
// misbehaves identically.
//
// Every impairment keeps its own counter, so a test can reconcile the
// books exactly: frames offered = delivered + dropped, with each drop
// attributed to Bernoulli loss, a Gilbert–Elliott bad state, or a
// partition window, and each surviving mutation (duplicate, delay,
// reorder, bit flip) visible in Stats.
package faults

import (
	"fmt"
	"strings"

	"ldlp/internal/mbuf"
)

// Window is a half-open interval of simulated time [From, To) during
// which the link is partitioned: every frame is dropped.
type Window struct {
	From, To float64
}

// contains reports whether t falls inside the window.
func (w Window) contains(t float64) bool { return t >= w.From && t < w.To }

// GilbertElliott parameterizes the classic two-state bursty-loss model:
// the link flips between a Good and a Bad state with the given
// per-frame transition probabilities, and drops frames with a
// state-dependent probability. PBadGood small and LossBad large yields
// the clustered losses that distinguish burst recovery (one RTO, many
// segments) from independent Bernoulli drops.
type GilbertElliott struct {
	// PGoodBad / PBadGood are the per-frame transition probabilities.
	PGoodBad, PBadGood float64
	// LossGood / LossBad are the drop probabilities within each state.
	LossGood, LossBad float64
}

// Config composes the impairments applied to one link direction. The
// zero value impairs nothing; each field enables one impairment
// independently, and all enabled impairments are consulted per frame
// (drop models first — a dropped frame is not also delayed or
// corrupted).
type Config struct {
	// Loss is the Bernoulli per-frame drop probability.
	Loss float64
	// GE, when non-nil, adds Gilbert–Elliott bursty loss on top of Loss.
	GE *GilbertElliott
	// Partitions are absolute simulated-time windows during which every
	// frame is dropped (a link outage; pair two directions for a full
	// partition).
	Partitions []Window
	// DupProb is the probability a delivered frame is duplicated once.
	DupProb float64
	// ReorderProb is the probability a delivered frame is held back so
	// that up to ReorderSpan later frames overtake it.
	ReorderProb float64
	// ReorderSpan is how many frames may overtake a reordered one
	// (default 3 when ReorderProb > 0).
	ReorderSpan int
	// Delay adds fixed latency (simulated seconds) to every frame;
	// Jitter adds a further uniform [0, Jitter) per frame. Jittered
	// frames flushed by the clock may arrive out of order, which is the
	// point.
	Delay, Jitter float64
	// CorruptProb is the probability of flipping exactly one bit of the
	// frame. One bit, deliberately: a single flip is always detected by
	// the Internet checksum, so corruption must surface as a counted
	// drop (BadIP/BadTCP/BadUDP), never as corrupt application data.
	CorruptProb float64
}

// Validate reports configuration errors (probabilities outside [0,1],
// negative delays, inverted windows).
func (c Config) Validate() error {
	// An ordered array, not a map: with several probabilities out of
	// range, map iteration made the reported error vary run to run. An
	// absent GE checks as all-zero, so the array has one fixed shape and
	// New's only allocation is the Injector itself.
	var ge GilbertElliott
	if c.GE != nil {
		ge = *c.GE
	}
	probs := [...]struct {
		name string
		p    float64
	}{
		{"Loss", c.Loss}, {"DupProb", c.DupProb},
		{"ReorderProb", c.ReorderProb}, {"CorruptProb", c.CorruptProb},
		{"GE.PGoodBad", ge.PGoodBad}, {"GE.PBadGood", ge.PBadGood},
		{"GE.LossGood", ge.LossGood}, {"GE.LossBad", ge.LossBad},
	}
	for _, e := range probs {
		if e.p < 0 || e.p > 1 {
			return fmt.Errorf("faults: %s = %v outside [0,1]", e.name, e.p)
		}
	}
	if c.Delay < 0 || c.Jitter < 0 {
		return fmt.Errorf("faults: negative delay %v/jitter %v", c.Delay, c.Jitter)
	}
	if c.ReorderSpan < 0 {
		return fmt.Errorf("faults: negative reorder span %d", c.ReorderSpan)
	}
	for _, w := range c.Partitions {
		if w.To < w.From {
			return fmt.Errorf("faults: inverted partition window [%v,%v)", w.From, w.To)
		}
	}
	return nil
}

// Enabled reports whether the config impairs anything at all.
func (c Config) Enabled() bool {
	return c.Loss > 0 || c.GE != nil || len(c.Partitions) > 0 ||
		c.DupProb > 0 || c.ReorderProb > 0 || c.Delay > 0 || c.Jitter > 0 ||
		c.CorruptProb > 0
}

// String summarizes the enabled impairments compactly ("loss=0.1
// ge dup=0.05 delay=2ms±1ms corrupt=0.3 partitions=2").
func (c Config) String() string {
	var parts []string
	if c.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%g", c.Loss))
	}
	if c.GE != nil {
		parts = append(parts, fmt.Sprintf("ge=%g/%g", c.GE.PGoodBad, c.GE.LossBad))
	}
	if c.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", c.DupProb))
	}
	if c.ReorderProb > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", c.ReorderProb))
	}
	if c.Delay > 0 || c.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("delay=%gs±%gs", c.Delay, c.Jitter))
	}
	if c.CorruptProb > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", c.CorruptProb))
	}
	if len(c.Partitions) > 0 {
		parts = append(parts, fmt.Sprintf("partitions=%d", len(c.Partitions)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Action is the verdict for one frame. Exactly one of Drop or delivery
// applies; on delivery the mutation fields compose (a frame can be
// duplicated and delayed and corrupted).
type Action struct {
	// Drop discards the frame (the owner must free its buffers).
	Drop bool
	// Duplicate delivers one extra pristine copy of the frame.
	Duplicate bool
	// ReorderSpan > 0 holds the frame back so up to that many later
	// frames overtake it.
	ReorderSpan int
	// Delay holds the frame for this many simulated seconds before
	// delivery.
	Delay float64
	// CorruptBit, when >= 0, is the index of the single bit to flip in
	// the frame (already reduced modulo the frame's bit length).
	CorruptBit int
}

// Stats are the per-impairment counters. They are written only by the
// goroutine driving the injector (the network pump or a sim run); read
// them while the carrier is quiescent.
type Stats struct {
	// Frames counts original frames offered; Dropped those discarded.
	// Delivered originals = Frames - Dropped; the carrier sees
	// Frames - Dropped + Duplicated arrivals in total.
	Frames, Dropped int64
	// Drop attribution: Dropped == LossDrops + BurstDrops + PartitionDrops.
	LossDrops, BurstDrops, PartitionDrops int64
	// Mutations applied to delivered frames.
	Duplicated, Reordered, Delayed, Corrupted int64
}

// Merge adds other's counters into s field-wise. Stats began life
// assuming one wire; a fleet topology runs one injector per link, and
// this is how their books roll up into one fleet-wide summary. Merging
// is pure addition (max-free, state-free), so it is commutative and
// associative: any grouping of per-link stats — per node, per rack,
// all at once — yields the same totals, and the merged summary obeys
// the same identities each instance does (Dropped == LossDrops +
// BurstDrops + PartitionDrops).
func (s *Stats) Merge(other Stats) {
	s.Frames += other.Frames
	s.Dropped += other.Dropped
	s.LossDrops += other.LossDrops
	s.BurstDrops += other.BurstDrops
	s.PartitionDrops += other.PartitionDrops
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
	s.Delayed += other.Delayed
	s.Corrupted += other.Corrupted
}

// Stream is the module's seeded draw: a splitmix64 sequence, eight
// bytes of state held by value, one per consumer (a link's verdicts, a
// link's jitter, a topology's rewiring), so each sequence depends on its
// own seed alone. A golden test pins the constants: changing them
// re-deals every seeded run in the repo.
type Stream struct{ state uint64 }

// NewStream starts a stream at seed. Nearby seeds give unrelated
// sequences (the output function mixes the whole state).
func NewStream(seed uint64) Stream { return Stream{state: seed} }

// Uint64 returns the next 64 bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns the next draw in [0, 1).
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Intn returns the next draw in [0, n); n must be positive.
func (s *Stream) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Injector makes seeded impairment decisions for one link direction.
// Not safe for concurrent use: one goroutine (the network pump, one sim
// run) owns it, which is also what keeps its decisions deterministic.
type Injector struct {
	cfg   Config
	rng   Stream
	bad   bool // Gilbert–Elliott state
	stats Stats
}

// New builds an injector for cfg with its own Stream seeded by seed.
// Panics on an invalid config (impairment configs are static test/tool
// inputs; failing loudly beats silently sanitizing them).
func New(cfg Config, seed int64) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReorderProb > 0 && cfg.ReorderSpan == 0 {
		cfg.ReorderSpan = 3
	}
	return &Injector{cfg: cfg, rng: NewStream(uint64(seed))}
}

// Stats returns a snapshot of the per-impairment counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Frame decides the fate of one frame of `bits` bits (bytes*8) observed
// at simulated time now. The caller applies the returned Action.
func (inj *Injector) Frame(now float64, bits int) Action {
	inj.stats.Frames++
	cfg := &inj.cfg

	// Drop models first: a dropped frame undergoes no other impairment.
	for _, w := range cfg.Partitions {
		if w.contains(now) {
			inj.stats.Dropped++
			inj.stats.PartitionDrops++
			return Action{Drop: true, CorruptBit: -1}
		}
	}
	if cfg.Loss > 0 && inj.rng.Float64() < cfg.Loss {
		inj.stats.Dropped++
		inj.stats.LossDrops++
		return Action{Drop: true, CorruptBit: -1}
	}
	if ge := cfg.GE; ge != nil {
		// Advance the two-state chain once per frame, then draw against
		// the current state's loss rate.
		if inj.bad {
			if inj.rng.Float64() < ge.PBadGood {
				inj.bad = false
			}
		} else if inj.rng.Float64() < ge.PGoodBad {
			inj.bad = true
		}
		p := ge.LossGood
		if inj.bad {
			p = ge.LossBad
		}
		if p > 0 && inj.rng.Float64() < p {
			inj.stats.Dropped++
			inj.stats.BurstDrops++
			return Action{Drop: true, CorruptBit: -1}
		}
	}

	var act Action
	if cfg.DupProb > 0 && inj.rng.Float64() < cfg.DupProb {
		act.Duplicate = true
		inj.stats.Duplicated++
	}
	if cfg.ReorderProb > 0 && inj.rng.Float64() < cfg.ReorderProb {
		act.ReorderSpan = 1 + inj.rng.Intn(cfg.ReorderSpan)
		inj.stats.Reordered++
	}
	if cfg.Delay > 0 || cfg.Jitter > 0 {
		act.Delay = cfg.Delay
		if cfg.Jitter > 0 {
			act.Delay += inj.rng.Float64() * cfg.Jitter
		}
		inj.stats.Delayed++
	}
	act.CorruptBit = -1
	if cfg.CorruptProb > 0 && bits > 0 && inj.rng.Float64() < cfg.CorruptProb {
		act.CorruptBit = inj.rng.Intn(bits)
		inj.stats.Corrupted++
	}
	return act
}

// Apply draws the verdict for the frame in chain m at simulated time now
// and carries out everything it does to buffers, in the one order that
// is right: a dropped chain is freed and nothing else happens to it; a
// duplicate is copied by alloc (the receiver's pump-side pool: the copy
// is born on the receiver's side of the link) while the original is
// still pristine; only then is the corrupted bit flipped. The caller
// keeps m unless act.Drop, owns dup when non-nil (it has had its
// verdict), and does the timing: act.Delay and act.ReorderSpan mean
// different things on a ticked wire queue and on an event heap.
func (inj *Injector) Apply(now float64, m *mbuf.Mbuf, alloc func([]byte) *mbuf.Mbuf) (act Action, dup *mbuf.Mbuf) {
	act = inj.Frame(now, m.PktLen()*8)
	if act.Drop {
		m.FreeChain()
		return act, nil
	}
	if act.Duplicate {
		dup = alloc(m.Contiguous())
	}
	if act.CorruptBit >= 0 {
		m.FlipBit(act.CorruptBit)
	}
	return act, dup
}

// Presets returns the named impairment mixes the chaos suite and the
// cmd/chaos driver sweep: each exercises one recovery mechanism, and
// "all" composes everything.
func Presets() map[string]Config {
	return map[string]Config{
		"clean":     {},
		"bernoulli": {Loss: 0.10},
		"bursty": {GE: &GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.25, LossGood: 0.01, LossBad: 0.8,
		}},
		"duplication": {DupProb: 0.15},
		"reorder":     {ReorderProb: 0.25, ReorderSpan: 4},
		"delay":       {Delay: 0.005, Jitter: 0.02},
		"corrupt":     {CorruptProb: 0.20},
		"partition":   {Partitions: []Window{{From: 0.5, To: 1.5}}},
		"all": {
			Loss: 0.03,
			GE: &GilbertElliott{
				PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0, LossBad: 0.6,
			},
			DupProb:     0.05,
			ReorderProb: 0.10,
			ReorderSpan: 3,
			Delay:       0.002,
			Jitter:      0.01,
			CorruptProb: 0.05,
			Partitions:  []Window{{From: 0.8, To: 1.3}},
		},
	}
}

// PresetNames returns the preset keys in the order the soak suite runs
// them (deterministic, simple before composed).
func PresetNames() []string {
	return []string{
		"clean", "bernoulli", "bursty", "duplication", "reorder",
		"delay", "corrupt", "partition", "all",
	}
}
