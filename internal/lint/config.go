package lint

// engineRegistrars is how the engine's function-value calls enter the
// call graph. It invokes layer handlers and the Sink through values
// stored at setup, so Stack.process's true callees are invisible to the
// resolver. Each line names a function that stores such a value and the
// function that later calls it; the handlers themselves are read off the
// AddLayer/SetSink call sites (Program.handlerEdges), so hotpathalloc's
// proof covers worker -> Inject -> ... -> process -> handler -> ... and
// quiescence's reachability every registered handler, the cold ICMP one
// included, without a dynamic-dispatch analysis or a list to keep.
var engineRegistrars = map[string]string{
	"ldlp/internal/core.Stack.AddLayer":       "ldlp/internal/core.Stack.process",
	"ldlp/internal/core.Stack.SetSink":        "ldlp/internal/core.Stack.deliver",
	"ldlp/internal/core.ShardedStack.SetSink": "ldlp/internal/core.ShardedStack.flush",
}

// DefaultAnalyzers returns the seven analyzers configured for this
// repository's invariants. The qualified names below are load-bearing:
// hotpathalloc.Required holds the entry points of the zero-allocation
// paths the netstack's alloc-free tests drive (renaming or untagging one
// fails `make lint`; what they reach, and the //ldlp:coldpath steps that
// end the proof, are declared in the source), the lockorder classes
// declare the repo-wide acquisition order, and the shardaffinity hand-off
// list IS the transport path's declared cross-shard surface — extending
// any of them is a design decision, not a lint chore.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewMbufOwn(MbufOwnConfig{
			AllocFns: []string{
				"ldlp/internal/mbuf.Get",
				"ldlp/internal/mbuf.GetCluster",
				"ldlp/internal/mbuf.FromBytes",
				"ldlp/internal/mbuf.PoolShard.Get",
				"ldlp/internal/mbuf.PoolShard.GetCluster",
				"ldlp/internal/mbuf.PoolShard.FromBytes",
				"ldlp/internal/mbuf.PoolShard.get",
				"ldlp/internal/mbuf.Mbuf.alikeFor",
			},
			MbufTypes: []string{"ldlp/internal/mbuf.Mbuf"},
		}),
		NewHotPathAlloc(HotPathAllocConfig{
			// The hot path's entry points; everything they reach is checked
			// from them, tagged or not. Host.deliver is the frame's way in:
			// the conventional and LDLP inject→decode→demux→recycle path
			// hangs off it.
			Required: []string{
				"ldlp/internal/netstack.Host.deliver",
				// The application side of the TCP data path, which
				// TestTCPDataPathAllocFree drives: Send into the send queue
				// (which is the retransmission queue) and out as segments,
				// Recv out of the receive queue.
				"ldlp/internal/netstack.TCPSock.Send",
				"ldlp/internal/netstack.TCPSock.Recv",
				// The dispatch policies' per-frame surface, called through
				// the Policy interface: every frame pays Key + Shard before
				// it reaches a shard queue, so all three policies must key
				// and route without allocating (rebalancing is pump-side and
				// exempt).
				"ldlp/internal/dispatch.Static.Key",
				"ldlp/internal/dispatch.Static.Shard",
				"ldlp/internal/dispatch.LoadAware.Key",
				"ldlp/internal/dispatch.LoadAware.Shard",
				"ldlp/internal/dispatch.RPCDispatch.Key",
				"ldlp/internal/dispatch.RPCDispatch.Shard",
				// Growth allocates, but only in the cold grow(); the passive
				// open that inserts is itself cold, so nothing tagged calls it.
				"ldlp/internal/flowtable.Table.Insert",
				// The engine's LDLP half: Run is untagged (it is the pump's
				// loop), so what it and the emit closure call enter here.
				"ldlp/internal/core.Stack.runLayer",
				"ldlp/internal/core.Stack.deliver",
				"ldlp/internal/core.bitset.has",
				"ldlp/internal/core.bitset.highest",
				"ldlp/internal/telemetry.Tracer.Now",
			},
			Registrars: engineRegistrars,
		}),
		NewQuiescence(QuiescenceConfig{
			// The one goroutine body that runs while packets are in
			// flight: each shard's worker loop, which also hands its
			// round's deliveries to the Sink.
			Roots: []string{
				"ldlp/internal/core.ShardedStack.worker",
			},
			Registrars: engineRegistrars,
			// The at-quiescence walks that touch no shard-owned state, so
			// only this list notices the directive going: the rest
			// (applyMigration, tcpTick, fragTick, flushTx) turn into
			// shardaffinity findings the moment they lose it.
			Required: []string{
				"ldlp/internal/netstack.Host.dispatchTick",
				"ldlp/internal/dispatch.LoadAware.Rebalance",
				"ldlp/internal/mbuf.FreeQueue.Flush",
			},
		}),
		NewAtomicCounter(AtomicCounterConfig{
			// Counters documents a quiescent-read discipline: plain reads
			// are safe once shard workers have drained. Writes must still
			// be atomic, and per-socket drop counters get no such pass.
			QuiescentReadTypes: []string{"ldlp/internal/netstack.Counters"},
		}),
		NewLockOrder(LockOrderConfig{
			// The per-host receive lock is gone: transport state is sharded
			// by flow hash and touched lock-free on its owning shard. What
			// remains are the narrow fan-in locks (UDP socket queue, TCP
			// listener backlog, ICMP reply list), each held only for an
			// append/pop — never across an emit, a send, or another lock.
			// The engine's Sink mutex ranks below them all: the Sink runs
			// under it, so anything the Sink locks is acquired inside it.
			// Its idle mutex is a leaf, held only to park or wake Drain.
			Classes: []LockClass{
				{Path: "ldlp/internal/core.ShardedStack.sinkMu", Rank: 10},
				{Path: "ldlp/internal/netstack.UDPSock.mu", Rank: 14},
				{Path: "ldlp/internal/netstack.TCPListener.mu", Rank: 16},
				{Path: "ldlp/internal/netstack.Host.icmpMu", Rank: 18},
				{Path: "ldlp/internal/mbuf.PoolShard.mu", Rank: 30},
				{Path: "ldlp/internal/core.ShardedStack.idleMu", Rank: 40},
			},
			Sinks: []string{
				"ldlp/internal/core.ShardedStack.Drain",
				"ldlp/internal/core.ShardedStack.Close",
				"ldlp/internal/core.Stack.Run",
				"ldlp/internal/netstack.Net.RunUntilIdle",
				"ldlp/internal/netstack.Net.Tick",
			},
			EmitTypes: []string{"ldlp/internal/core.Emit"},
		}),
		NewShardAffinity(ShardAffinityConfig{
			// The transport path's ownership proof: PCBs, transport shards
			// and reassembly state are owned by the shard the RSS flow hash
			// routes their traffic to.
			OwnedTypes: []string{
				"ldlp/internal/netstack.tcpPCB",
				"ldlp/internal/netstack.transportShard",
				"ldlp/internal/netstack.fragState",
				// The flow table and the padded tally slot inherit their
				// shard's ownership: single-writer structures touched only
				// from the owning worker or at quiescence.
				"ldlp/internal/netstack.shardTally",
				"ldlp/internal/flowtable.Table",
			},
			// Shard context: receive-path methods run on the owning worker;
			// owned types' own methods run wherever a caller already proved
			// affinity.
			ShardContext: []string{
				"ldlp/internal/netstack.rxPath",
				"ldlp/internal/netstack.transportShard",
				"ldlp/internal/netstack.tcpPCB",
				"ldlp/internal/flowtable.Table",
			},
			// The declared cross-shard surface, now just two families: host
			// setup (fresh values handed to their owner-to-be) and the few
			// API entry points that are genuinely concurrent with running
			// workers, each mediated by a lock or an atomic (the TCPListener
			// backlog lock and the PCB's atomic estab flag for Accept).
			// Everything that runs only between pump iterations — timer
			// ticks, migration, the stats walks, the quiescent socket API —
			// carries //ldlp:quiescent instead, and the quiescence analyzer
			// proves those unreachable from the worker roots.
			Handoffs: []string{
				"ldlp/internal/netstack.newHost",
				"ldlp/internal/netstack.Host.tupleShard",
				"ldlp/internal/netstack.Host.pumpShard",
				// Construction hands a fresh (never-shared) value to its
				// owner-to-be.
				"ldlp/internal/flowtable.New",
				"ldlp/internal/netstack.TCPListener.Accept",
			},
		}),
		NewDeterminism(DeterminismConfig{
			Packages: []string{
				"ldlp/internal/sim",
				"ldlp/internal/faults",
				"ldlp/internal/traffic",
				// Telemetry timestamps must come from an injected Clock so
				// sim-driven traces depend on the seed alone; time.Now
				// anywhere in the package would silently break replay.
				"ldlp/internal/telemetry",
				// The flow table promises deterministic iteration — no map
				// ranging, no global rand, no clock.
				"ldlp/internal/flowtable",
				// Dispatch policies must be replay-deterministic: identical
				// frame sequences and rebalance points yield identical shard
				// assignments, which the cross-policy equivalence harness
				// depends on.
				"ldlp/internal/dispatch",
				// The fleet simulator's whole contract is byte-identical
				// replay per seed: event times, link jitter, fault streams
				// and merged telemetry all flow from Config.Seed. Wall
				// clocks, global rand, or map ranging anywhere in the
				// scheduler or the gossip protocol would break the replay
				// test silently on some future run.
				"ldlp/internal/fleet",
				"ldlp/internal/fleet/gossip",
			},
		}),
	}
}
