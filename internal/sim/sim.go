// Package sim is the discrete-event simulator behind the paper's §4
// evaluation: a five-layer synthetic protocol stack running on the machine
// model, fed by a traffic source, processed under the conventional, ILP or
// LDLP discipline.
//
// The configuration defaults are the paper's: each layer has 6 KB of code
// and 256 bytes of data in its working set; every instruction in the
// working set executes at least once per message, including a data loop
// costing 0.5 cycles/byte; 1652 cycles of instruction processing per layer
// for 552-byte messages; 8 KB direct-mapped split I/D caches with 32-byte
// lines and a 20-cycle read-miss stall at 100 MHz; buffering limited to
// 500 packets; under LDLP a batch is "as many available messages as will
// fit in the data cache", and enqueue/dequeue costs ~40 instructions.
package sim

import (
	"fmt"
	"math/rand"

	"ldlp/internal/core"
	"ldlp/internal/machine"
	"ldlp/internal/stats"
	"ldlp/internal/telemetry"
	"ldlp/internal/traffic"
)

// Config parameterizes one simulation run.
type Config struct {
	// Machine is the simulated CPU (see machine.DefaultConfig for the
	// paper's machine).
	Machine machine.Config
	// Discipline selects conventional, ILP or LDLP processing.
	Discipline core.Discipline
	// Layers is the protocol stack depth (the paper uses 5).
	Layers int
	// LayerCode/LayerData are each layer's code and data working-set
	// sizes in bytes.
	LayerCode, LayerData int
	// IssueFixed is the straight-line issue cycles per layer per message
	// (excluding the data loop); IssuePerByte is the data-loop cost. The
	// paper's totals imply 1376 + 0.5/byte (see DESIGN.md §5).
	IssueFixed, IssuePerByte float64
	// QueueOpCycles models the ~40-instruction enqueue/dequeue cost paid
	// per layer per message under LDLP (§3.2).
	QueueOpCycles float64
	// GroupSize runs contiguous groups of that many layers by direct call
	// under LDLP (core.Stack.Group), so a message pays QueueOpCycles once
	// per group instead of once per layer. 0 or 1 is the paper's
	// schedule, a queue between every pair of layers.
	GroupSize int
	// BatchCap caps an LDLP batch. 0 means "fit the data cache", the
	// paper's rule. 1 under LDLP degenerates to per-message processing.
	BatchCap int
	// BufferLimit is the arrival queue bound (500 in the paper); beyond
	// it packets are dropped.
	BufferLimit int
	// Duration is the simulated time horizon in seconds.
	Duration float64
	// Seed randomizes segment placement (the paper averages 100 runs with
	// different random placements).
	Seed int64
}

// DefaultConfig returns the paper's §4 configuration for one discipline.
func DefaultConfig(d core.Discipline) Config {
	return Config{
		Machine:       machine.DefaultConfig(),
		Discipline:    d,
		Layers:        5,
		LayerCode:     6144,
		LayerData:     256,
		IssueFixed:    1376,
		IssuePerByte:  0.5,
		QueueOpCycles: 40,
		GroupSize:     1,
		BatchCap:      0,
		BufferLimit:   500,
		Duration:      1.0,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("sim: need at least one layer, got %d", c.Layers)
	case c.LayerCode <= 0 || c.LayerData < 0:
		return fmt.Errorf("sim: invalid layer sizes code=%d data=%d", c.LayerCode, c.LayerData)
	case c.Duration <= 0:
		return fmt.Errorf("sim: non-positive duration %v", c.Duration)
	case c.BufferLimit <= 0:
		return fmt.Errorf("sim: non-positive buffer limit %d", c.BufferLimit)
	case c.IssueFixed < 0 || c.IssuePerByte < 0 || c.QueueOpCycles < 0:
		return fmt.Errorf("sim: negative cost in %+v", c)
	case c.GroupSize < 0:
		return fmt.Errorf("sim: negative group size %d", c.GroupSize)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	// Offered counts arrivals inside the horizon; Processed those that
	// completed; Dropped those rejected at the full buffer.
	Offered, Processed, Dropped int
	// LinkDropped counts messages a fault-injecting source removed
	// before the stack saw them (loss, burst loss, partition,
	// corruption); zero when the sweep runs on a clean link.
	LinkDropped int
	// Latency aggregates per-message (completion - arrival) seconds.
	Latency stats.Running
	// P50Latency, P90Latency, P99Latency estimate latency quantiles in
	// seconds (Figure 6 reports means; tails tell the batching story —
	// LDLP trades a small p50 penalty for a collapsed p99 under load).
	P50Latency, P90Latency, P99Latency float64
	// IMissesPerMsg / DMissesPerMsg are cache misses per processed
	// message (Figure 5's two curves).
	IMissesPerMsg, DMissesPerMsg float64
	// MeanBatch is the average LDLP batch size; 1 under conventional.
	MeanBatch float64
	// Throughput is processed messages per simulated second.
	Throughput float64
	// BusyFrac is the fraction of simulated time the CPU was busy.
	BusyFrac float64
	// BatchHist and LatencyHist are the run's telemetry distributions:
	// engine batch sizes (messages per bottom-layer batch) and
	// per-message latencies in simulated nanoseconds. Mergeable, so
	// sweeps aggregate them across seeds exactly.
	BatchHist, LatencyHist telemetry.HistSnapshot
}

// message is the unit flowing through the stack.
type message struct {
	arrival float64
	size    int
	addr    uint64
}

// Sim is a single-run simulator instance.
type Sim struct {
	cfg    Config
	cpu    *machine.CPU
	arena  *machine.Arena
	stack  *core.Stack[*message]
	layers []simLayer

	clock float64 // Hz

	// completion bookkeeping, valid during a batch
	batchStartTime   float64
	batchStartCycles float64
	completions      []completion

	hist *stats.Histogram

	// tel is the run's telemetry domain, stamped by the simulated clock
	// (batch start time plus cycles burned since, scaled to ns) — the
	// determinism analyzer guarantees no wall-clock leaks in here, so
	// traces replay bit-identically per seed.
	tel        *telemetry.Domain
	latencyNS  *telemetry.Hist
	simBatches *telemetry.Hist
}

type simLayer struct {
	code *machine.Segment
	data *machine.Segment
}

type completion struct {
	m  *message
	at float64
}

// New builds a simulator with freshly placed segments.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.GroupSize = max(cfg.GroupSize, 1)
	s := &Sim{cfg: cfg, clock: cfg.Machine.ClockHz}
	s.cpu = machine.New(cfg.Machine)
	rng := rand.New(rand.NewSource(cfg.Seed))
	layout := machine.NewLayout(cfg.Machine.ICache.LineSize)

	// Code segments get random placement (the source of conflict-pattern
	// variance the paper averages away over 100 seeds); layer data and
	// the message arena live in their own regions.
	for i := 0; i < cfg.Layers; i++ {
		code := machine.NewSegment(fmt.Sprintf("L%d.code", i+1), machine.Code, cfg.LayerCode)
		layout.PlaceRandom(rng, cfg.Machine.ICache.Size, code)
		var data *machine.Segment
		if cfg.LayerData > 0 {
			data = machine.NewSegment(fmt.Sprintf("L%d.data", i+1), machine.Mutable, cfg.LayerData)
			layout.PlaceRandom(rng, cfg.Machine.DCache.Size, data)
		}
		s.layers = append(s.layers, simLayer{code: code, data: data})
	}
	// Message buffers: a contiguous circular pool, like chained kernel
	// buffer allocations (see DESIGN.md).
	s.arena = machine.NewArena(1<<40, 1<<16, cfg.Machine.DCache.LineSize)

	s.stack = core.NewStack[*message](core.Options{
		Discipline: cfg.Discipline,
		// The engine-level batch bound is handled by the sim (it is
		// size-dependent); the engine cap stays off.
	})
	var prev *core.Layer[*message]
	for i := range s.layers {
		i := i
		l := s.stack.AddLayer(fmt.Sprintf("L%d", i+1), func(m *message, emit core.Emit[*message]) {
			if i+1 < len(s.layers) {
				emit(s.stack.Layers()[i+1], m)
			} else {
				emit(nil, m)
			}
		})
		if prev != nil {
			s.stack.Link(prev, l)
		}
		prev = l
	}
	if g := cfg.GroupSize; g > 1 {
		for ls := s.stack.Layers(); len(ls) > 0; ls = ls[min(g, len(ls)):] {
			s.stack.Group(ls[:min(g, len(ls))]...)
		}
	}
	s.stack.OnProcess(func(l *core.Layer[*message], m *message) { s.charge(layerIndex(l), m) })
	s.stack.SetSink(func(m *message) {
		at := s.batchStartTime + (s.cpu.Cycles()-s.batchStartCycles)/s.clock
		s.completions = append(s.completions, completion{m: m, at: at})
	})
	s.hist = stats.NewHistogram(0, 1.0, 100000) // 10 µs buckets up to 1 s

	s.tel = telemetry.NewDomain("sim", func() int64 {
		return int64((s.batchStartTime + (s.cpu.Cycles()-s.batchStartCycles)/s.clock) * 1e9)
	})
	s.stack.SetTelemetry(s.tel.Tracer("engine", 0), s.tel.Hist("ldlp-batch"))
	s.latencyNS = s.tel.Hist("latency-ns")
	s.simBatches = s.tel.Hist("dispatch-batch")
	return s
}

// Telemetry exposes the run's telemetry domain (per-layer engine trace
// plus histograms), stamped on the simulated timeline.
func (s *Sim) Telemetry() *telemetry.Domain { return s.tel }

func layerIndex(l *core.Layer[*message]) int {
	// Layer names are L1..Ln; parse cheaply.
	n := 0
	for _, c := range l.Name()[1:] {
		n = n*10 + int(c-'0')
	}
	return n - 1
}

// charge applies the machine-model cost of processing message m at layer i.
func (s *Sim) charge(i int, m *message) {
	cfg := &s.cfg
	sl := &s.layers[i]

	// Queue handling cost (LDLP only: call-through stacks pay no
	// queueing), paid where a message enters a group of layers.
	if cfg.Discipline == core.LDLP && i%cfg.GroupSize == 0 {
		s.cpu.AddIssueCycles(cfg.QueueOpCycles)
	}

	// Layer code: every instruction in the working set executes at least
	// once per message.
	s.cpu.ExecSegment(sl.code, cfg.IssueFixed)

	// Layer-private data.
	if sl.data != nil {
		s.cpu.TouchData(sl.data.Addr(), sl.data.Size)
	}

	// The data loop over message contents. Under ILP the loops of all
	// layers are integrated: the bytes are loaded once, at the bottom
	// layer, and the per-byte issue cost is paid once.
	if cfg.Discipline == core.ILP {
		if i == 0 {
			s.cpu.TouchData(m.addr, m.size)
			s.cpu.AddIssueCycles(cfg.IssuePerByte * float64(m.size))
		}
	} else {
		s.cpu.TouchData(m.addr, m.size)
		s.cpu.AddIssueCycles(cfg.IssuePerByte * float64(m.size))
	}
}

// batchLimitFor selects how many waiting messages join the next batch:
// the paper's rule is all available messages that together fit in the data
// cache (alongside the layers' own data).
func (s *Sim) batchLimitFor(pending []*message) int {
	if s.cfg.Discipline != core.LDLP {
		return 1
	}
	if s.cfg.BatchCap == 1 {
		return 1
	}
	budget := s.cfg.Machine.DCache.Size - s.cfg.Layers*s.cfg.LayerData
	line := s.cfg.Machine.DCache.LineSize
	n := 0
	for _, m := range pending {
		sz := (m.size + line - 1) / line * line
		if budget < sz {
			break
		}
		budget -= sz
		n++
		if s.cfg.BatchCap > 0 && n >= s.cfg.BatchCap {
			break
		}
	}
	if n == 0 {
		n = 1 // a message larger than the cache still must be processed
	}
	return n
}

// Run drives the simulation over src until the horizon and returns the
// aggregated result. Arrivals after the horizon are ignored; messages in
// flight at the horizon are processed to completion (their latencies
// count).
func (s *Sim) Run(src traffic.Source) Result {
	var res Result
	var pending []*message
	busy := 0.0
	dispatches := 0
	batchSum := 0

	nextArr, haveNext := src.Next()
	admit := func(a traffic.Arrival) {
		res.Offered++
		if len(pending) >= s.cfg.BufferLimit {
			res.Dropped++
			return
		}
		pending = append(pending, &message{arrival: a.Time, size: a.Size, addr: s.arena.Alloc(a.Size)})
	}

	now := 0.0
	serverFree := 0.0
	for {
		// Refill pending with everything that has arrived by `now`.
		for haveNext && nextArr.Time <= now && nextArr.Time <= s.cfg.Duration {
			admit(nextArr)
			nextArr, haveNext = src.Next()
		}
		if len(pending) == 0 {
			if !haveNext || nextArr.Time > s.cfg.Duration {
				break
			}
			// Idle until the next arrival.
			now = nextArr.Time
			if now < serverFree {
				now = serverFree
			}
			continue
		}

		start := now
		if serverFree > start {
			start = serverFree
		}
		// Everything that arrived by the batch start joins the queue.
		for haveNext && nextArr.Time <= start && nextArr.Time <= s.cfg.Duration {
			admit(nextArr)
			nextArr, haveNext = src.Next()
		}

		n := s.batchLimitFor(pending)
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		pending = pending[n:]

		s.batchStartTime = start
		s.batchStartCycles = s.cpu.Cycles()
		s.completions = s.completions[:0]
		for _, m := range batch {
			// The engine buffer is sized by our own BufferLimit above, so
			// Inject cannot fail here.
			if err := s.stack.Inject(m); err != nil {
				panic("sim: unexpected inject failure: " + err.Error())
			}
		}
		s.stack.Run()

		elapsed := (s.cpu.Cycles() - s.batchStartCycles) / s.clock
		busy += elapsed
		serverFree = start + elapsed
		now = serverFree

		for _, c := range s.completions {
			lat := c.at - c.m.arrival
			res.Latency.Add(lat)
			s.hist.Add(lat)
			s.latencyNS.Observe(int64(lat * 1e9))
			res.Processed++
		}
		dispatches++
		batchSum += len(batch)
		s.simBatches.Observe(int64(len(batch)))
	}

	if res.Processed > 0 {
		res.P50Latency = s.hist.Quantile(0.50)
		res.P90Latency = s.hist.Quantile(0.90)
		res.P99Latency = s.hist.Quantile(0.99)
		res.IMissesPerMsg = float64(s.cpu.I.Stats().Misses) / float64(res.Processed)
		res.DMissesPerMsg = float64(s.cpu.D.Stats().Misses) / float64(res.Processed)
		res.Throughput = float64(res.Processed) / s.cfg.Duration
	}
	if dispatches > 0 {
		res.MeanBatch = float64(batchSum) / float64(dispatches)
	}
	res.BusyFrac = busy / s.cfg.Duration
	if res.BusyFrac > 1 {
		res.BusyFrac = 1
	}
	res.BatchHist = s.simBatches.Snapshot()
	res.LatencyHist = s.latencyNS.Snapshot()
	return res
}
