package telemetry

import "sync"

// Tracer is one shard's flight recorder: a ring plus the shard's
// identity and registered layer names. Record methods are lock- and
// allocation-free; registration happens on the setup path.
type Tracer struct {
	clock Clock
	ring  *Ring
	label string
	shard int

	// layers maps layer index -> registered name for export. Sized at
	// registration; the record path never touches it.
	layers []string
}

// Ring exposes the underlying ring (tests, direct snapshotting).
func (t *Tracer) Ring() *Ring { return t.ring }

// RegisterLayer names a layer index for export. Setup path only.
func (t *Tracer) RegisterLayer(index int, name string) {
	if t == nil || index < 0 {
		return
	}
	for len(t.layers) <= index {
		t.layers = append(t.layers, "")
	}
	t.layers[index] = name
}

// Event records one flight-recorder event with the domain clock's
// current timestamp. Nil-safe and gated on the global enable flag, so
// call sites stay branch-cheap whether or not telemetry is wired or on.
//
//ldlp:hotpath
func (t *Tracer) Event(kind EventKind, layer int, arg int64) {
	if t == nil || !enabled.Load() {
		return
	}
	t.ring.Record(t.clock(), kind, uint8(layer), arg)
}

// Now reads the tracer's clock for the first Pass of a run: 0 for a nil
// tracer or with recording off, so the gated path reads no clock.
//
//ldlp:hotpath
func (t *Tracer) Now() int64 {
	if t == nil || !enabled.Load() {
		return 0
	}
	return t.clock()
}

// Pass records one completed layer pass, the only record a pass leaves:
// n messages through layer, from start to the clock's current reading,
// which it returns: passes run back to back, so one's end is the next
// one's start. Nil-safe and gated like Event (returning 0). Enable is
// flipped while engines idle; a run straddling a flip records a start of 0.
//
//ldlp:hotpath
func (t *Tracer) Pass(layer, n int, start int64) int64 {
	if t == nil || !enabled.Load() {
		return 0
	}
	end := t.clock()
	t.ring.RecordSpan(start, end-start, EvLayerEnter, uint8(layer), int64(n))
	return end
}

// Domain is one component's telemetry namespace — a host, a sim engine
// — owning its per-shard tracers and named histograms and snapshotting
// them together. Registration (Tracer, Hist) is mutex-guarded; the
// record paths those return are not.
type Domain struct {
	name  string
	clock Clock

	mu      sync.Mutex
	tracers []*Tracer
	// hists is insertion-ordered (snapshots and exports must not depend
	// on map iteration order); index is the lookup side.
	hists []namedHist
	index map[string]*Hist
}

type namedHist struct {
	name string
	h    *Hist
}

// NewDomain creates a telemetry domain whose events are stamped by
// clock. A nil clock stamps zero (histograms still work, spans
// degenerate to instants).
func NewDomain(name string, clock Clock) *Domain {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Domain{name: name, clock: clock, index: map[string]*Hist{}}
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Tracer registers a new per-shard tracer with a ring of ringCap events
// (<= 0 selects DefaultRingCap). The shard index is the registration
// order.
func (d *Domain) Tracer(label string, ringCap int) *Tracer {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := &Tracer{clock: d.clock, ring: NewRing(ringCap), label: label, shard: len(d.tracers)}
	d.tracers = append(d.tracers, t)
	return t
}

// Hist returns the named histogram, creating it on first use. Names are
// stable export keys ("rx-batch", "latency-ns").
func (d *Domain) Hist(name string) *Hist {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.index[name]; ok {
		return h
	}
	h := &Hist{}
	d.index[name] = h
	d.hists = append(d.hists, namedHist{name: name, h: h})
	return h
}

// Snapshot captures every tracer's retained events and every
// histogram's state. Safe concurrently with recording (a ring snapshot
// validates against the published head, histograms are atomic); exact
// when writers are quiescent.
func (d *Domain) Snapshot() Snapshot {
	d.mu.Lock()
	tracers := append([]*Tracer(nil), d.tracers...)
	hists := append([]namedHist(nil), d.hists...)
	d.mu.Unlock()

	s := Snapshot{Domain: d.name, Now: d.clock()}
	for _, t := range tracers {
		events, head := t.ring.Snapshot()
		s.Tracers = append(s.Tracers, TracerSnapshot{
			Label:    t.label,
			Shard:    t.shard,
			Layers:   append([]string(nil), t.layers...),
			Events:   events,
			Recorded: head,
			Lost:     head - uint64(len(events)),
		})
	}
	for _, nh := range hists {
		s.Hists = append(s.Hists, HistEntry{Name: nh.name, Hist: nh.h.Snapshot()})
	}
	return s
}
