package lint

import "slices"

// DefaultAnalyzers returns the seven analyzers configured for this
// repository's invariants. The qualified names below are load-bearing:
// hotpathalloc.Required doubles as the regression guard for the
// BenchmarkHotPathInject zero-alloc path (renaming or untagging one of
// those functions fails `make lint`), ColdPaths is the closed list of
// declared escape hatches out of the transitive allocation-freedom
// proof, the lockorder classes declare the repo-wide acquisition order,
// and the shardaffinity hand-off list IS the transport path's declared
// cross-shard surface — extending any of them is a design decision, not
// a lint chore.
func DefaultAnalyzers() []*Analyzer {
	// The closed list of declared cold steps reachable from the hot
	// closure. Each carries //ldlp:coldpath at its declaration; the
	// transitive walk stops there instead of reporting the allocations
	// inside. Adding an entry is a perf decision — it concedes the hot
	// path can take that step.
	coldPaths := []string{
		// Table growth: amortized O(1) over insertions, runs once per
		// doubling.
		"ldlp/internal/flowtable.Table.grow",
		// Passive open: SYN handling allocates the PCB; the steady-state
		// segment path never reaches it.
		"ldlp/internal/netstack.rxPath.tcpPassiveOpen",
		// Reassembly: fragmented datagrams are the exception in a
		// small-message protocol, and the buffers allocate by design
		// (O(log k) per k-fragment datagram).
		"ldlp/internal/netstack.transportShard.reassemble",
		// ICMP delivery: reply buffers. Outside the small-message
		// contract that BenchmarkHotPathInject* measures.
		"ldlp/internal/netstack.rxPath.icmpInput",
	}
	// The engine invokes layer handlers through function values cached
	// at Use() time, so Stack.process's true callees are invisible to the
	// resolver. Every registered handler, written once: quiescence, whose
	// reachability must overapproximate, takes the whole list;
	// hotpathalloc takes it minus the declared cold paths, and its proof
	// then covers worker -> Inject -> ... -> process -> handler -> ...
	// without a dynamic-dispatch analysis.
	rxHandlers := []string{
		"ldlp/internal/netstack.rxPath.deviceInput",
		"ldlp/internal/netstack.rxPath.etherInput",
		"ldlp/internal/netstack.rxPath.ipInput",
		"ldlp/internal/netstack.rxPath.tcpInput",
		"ldlp/internal/netstack.rxPath.udpInput",
		"ldlp/internal/netstack.rxPath.icmpInput",
		"ldlp/internal/netstack.rxPath.sockInput",
	}
	hotHandlers := slices.DeleteFunc(slices.Clone(rxHandlers), func(h string) bool {
		return slices.Contains(coldPaths, h)
	})
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
			// The functions BenchmarkHotPathInject drives, per package:
			// the conventional and LDLP inject→decode→demux→recycle path.
			Required: []string{
				"ldlp/internal/netstack.Host.deliver",
				"ldlp/internal/netstack.Host.getPacket",
				"ldlp/internal/netstack.Host.putPacket",
				"ldlp/internal/netstack.rxPath.drop",
				"ldlp/internal/netstack.rxPath.reject",
				"ldlp/internal/netstack.rxPath.deviceInput",
				"ldlp/internal/netstack.rxPath.etherInput",
				"ldlp/internal/netstack.rxPath.ipInput",
				"ldlp/internal/netstack.rxPath.tcpInput",
				"ldlp/internal/netstack.rxPath.sockInput",
				"ldlp/internal/netstack.rxPath.freeChain",
				// The small-datagram path BenchmarkHotPathInjectUDP drives:
				// checksum, demux, drop-before-copy, copy into a reused
				// socket slot.
				"ldlp/internal/netstack.rxPath.udpInput",
				"ldlp/internal/netstack.UDPSock.slot",
				// The million-flow PCB lookup path: the flow cache and the
				// open-addressed table must stay allocation-free per lookup
				// (growth allocates, but only in the untagged cold grow()).
				"ldlp/internal/netstack.transportShard.lookupPCB",
				// The application side of the TCP data path, which
				// TestTCPDataPathAllocFree drives: Send into the send queue
				// (which is the retransmission queue) and out as segments,
				// Recv out of the receive queue.
				"ldlp/internal/netstack.TCPSock.Send",
				"ldlp/internal/netstack.TCPSock.Recv",
				// The dispatch policies' per-frame surface: every frame pays
				// Key + Shard before it reaches a shard queue, so all three
				// policies must key and route without allocating (rebalancing
				// is pump-side and exempt).
				"ldlp/internal/dispatch.FrameKey",
				"ldlp/internal/dispatch.hashByte",
				"ldlp/internal/dispatch.Static.Key",
				"ldlp/internal/dispatch.Static.Shard",
				"ldlp/internal/dispatch.LoadAware.Key",
				"ldlp/internal/dispatch.LoadAware.Shard",
				"ldlp/internal/dispatch.RPCDispatch.Key",
				"ldlp/internal/dispatch.RPCDispatch.Shard",
				"ldlp/internal/dispatch.RPCDispatch.rpcXID",
				"ldlp/internal/flowtable.Table.Lookup",
				"ldlp/internal/flowtable.Table.Insert",
				"ldlp/internal/flowtable.arr.find",
				"ldlp/internal/flowtable.arr.insert",
				"ldlp/internal/flowtable.Cache.Lookup",
				"ldlp/internal/flowtable.Cache.Insert",
				"ldlp/internal/mbuf.PoolShard.get",
				"ldlp/internal/mbuf.PoolShard.FromBytes",
				"ldlp/internal/mbuf.Mbuf.Free",
				"ldlp/internal/mbuf.Mbuf.FreeChain",
				"ldlp/internal/mbuf.Mbuf.release",
				"ldlp/internal/mbuf.FreeQueue.Free",
				"ldlp/internal/mbuf.FreeQueue.FreeChain",
				"ldlp/internal/mbuf.Mbuf.Prepend",
				"ldlp/internal/core.Stack.Inject",
				"ldlp/internal/core.Stack.process",
				"ldlp/internal/core.Stack.deliver",
				"ldlp/internal/core.Stack.enqueue",
				"ldlp/internal/core.Stack.runLayer",
				"ldlp/internal/core.fifo.push",
				"ldlp/internal/core.fifo.pop",
				"ldlp/internal/core.bitset.set",
				"ldlp/internal/core.bitset.clear",
				"ldlp/internal/core.bitset.has",
				"ldlp/internal/core.bitset.highest",
				"ldlp/internal/checksum.Accumulator.Add",
				"ldlp/internal/checksum.Accumulator.Sum16",
				"ldlp/internal/checksum.Simple",
				// The flight recorder's record path: the telemetry promise
				// is that these stay allocation- and lock-free forever.
				"ldlp/internal/telemetry.Ring.Record",
				"ldlp/internal/telemetry.Ring.RecordSpan",
				"ldlp/internal/telemetry.Tracer.Event",
				"ldlp/internal/telemetry.Tracer.Now",
				"ldlp/internal/telemetry.Tracer.Pass",
				"ldlp/internal/telemetry.Hist.Observe",
				"ldlp/internal/telemetry.Counter.Inc",
				"ldlp/internal/telemetry.Counter.Add",
			},
			ColdPaths: coldPaths,
			DeclaredEdges: map[string][]string{
				"ldlp/internal/core.Stack.process": hotHandlers,
			},
		}),
		NewQuiescence(QuiescenceConfig{
			// The one goroutine body that runs while packets are in
			// flight: each shard's worker loop, which also hands its
			// round's deliveries to the Sink.
			Roots: []string{
				"ldlp/internal/core.ShardedStack.worker",
			},
			// Every registered handler, the cold ICMP one included, plus
			// the Sink the worker's flush calls.
			DeclaredEdges: map[string][]string{
				"ldlp/internal/core.Stack.process": rxHandlers,
				"ldlp/internal/core.ShardedStack.flush": {
					"ldlp/internal/netstack.Host.putPacket",
				},
			},
			// The pump's at-quiescence walks stay declared even if the
			// directive is deleted.
			Required: []string{
				"ldlp/internal/netstack.Host.dispatchTick",
				"ldlp/internal/netstack.Host.applyMigration",
				"ldlp/internal/netstack.Host.tcpTick",
				"ldlp/internal/netstack.Host.fragTick",
				"ldlp/internal/netstack.Host.flushTx",
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
				// The flow table, the flow cache and the padded tally slot
				// inherit their shard's ownership: single-writer structures
				// touched only from the owning worker or at quiescence.
				"ldlp/internal/netstack.shardTally",
				"ldlp/internal/flowtable.Table",
				"ldlp/internal/flowtable.Cache",
			},
			// Shard context: receive-path methods run on the owning worker;
			// owned types' own methods run wherever a caller already proved
			// affinity.
			ShardContext: []string{
				"ldlp/internal/netstack.rxPath",
				"ldlp/internal/netstack.transportShard",
				"ldlp/internal/netstack.tcpPCB",
				"ldlp/internal/flowtable.Table",
				"ldlp/internal/flowtable.Cache",
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
				"ldlp/internal/flowtable.NewCache",
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
				// The flow table promises deterministic iteration and seeded
				// eviction — no map ranging, no global rand, no clock.
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
