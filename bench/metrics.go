package main

import "fmt"

// The benchmark's vocabulary. BENCHMARK.json at the repository root
// lists the same names; a test keeps the two from drifting apart.

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"tcp_rx_k1", "light load: one TCP flow, one frame per pump, so LDLP batches are 1 and the engine's per-pass overhead is most of the cost"},
	{"tcp_rx_k14", "heavy load: 14 frames per pump over 4096 flows, so batches fill, the 8-entry flow cache misses, and decode, table lookup and data misses dominate"},
	{"udp_rpc", "the paper's motivating traffic: NFS-lite calls over UDP, sends beside receives, socket queue and rpc layer on the path, TCP bypassed"},
	{"http_get", "TCP used the other way: data segments, socket reads, delayed ACKs and transmit bookkeeping, so a fast-path gain that taxes the data path shows; UDP bypassed"},
	{"fleet_gossip", "scale: 512 hosts gossiping over lossy links under the event scheduler; working set far beyond cache, link model and faults on the path, all UDP"},
}

// metricDef is one metric: its name, unit, which way is better, and for
// an end-to-end metric the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Layer, What and Moves document a per-layer metric: the package it
	// belongs to, what is measured, and the end-to-end metric and
	// workload it is expected to move.
	Layer, What, Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd: what a user of the stack sees. All lower-is-better.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "conv.ns_per_msg", Unit: "ns", Better: lower, Bound: 0.15},
	{Name: "ldlp.ns_per_msg", Unit: "ns", Better: lower, Bound: 0.15},
	{Name: "conv.p99_ns", Unit: "ns", Better: lower, Bound: 0.25},
	{Name: "ldlp.p99_ns", Unit: "ns", Better: lower, Bound: 0.25},
	{Name: "allocs_per_msg_plus1", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "bytes_per_msg_plus1", Unit: "B", Better: lower, Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// perLayer: one row per reading of a single layer (layer = package).
// Traced self times are for the LDLP configuration, per message of that
// configuration; a reading is 0 on a workload that never calls the span.
var perLayer = []metricDef{
	{Name: "conv.msgs_per_s", Unit: "1/s", Better: higher, Layer: "bench", What: "1e9 / conv.ns_per_msg of the traced run's untraced pass", Moves: "restates conv.ns_per_msg"},
	{Name: "ldlp.msgs_per_s", Unit: "1/s", Better: higher, Layer: "bench", What: "1e9 / ldlp.ns_per_msg of the traced run's untraced pass", Moves: "restates ldlp.ns_per_msg"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Layer: "bench", What: "(traced - untraced) / untraced ns_per_msg, both configurations summed", Moves: "bounds how far traced self times can be trusted"},
	{Name: "harness.timer_ns", Unit: "ns", Better: lower, Layer: "bench", What: "one time.Now / time.Since pair", Moves: "the floor under every span"},
	{Name: "harness.round_self_ns", Unit: "ns", Better: lower, Layer: "bench", What: "traced self time of the round outside any layer call (generator, checks), per message", Moves: "none: harness cost"},

	{Name: "mbuf.frame_alloc_free_ns", Unit: "ns", Better: lower, Layer: "mbuf", What: "PoolShard.FromBytes + FreeChain, 54 B frame", Moves: "*.ns_per_msg on tcp_rx_k14, udp_rpc"},
	{Name: "mbuf.cluster_alloc_free_ns", Unit: "ns", Better: lower, Layer: "mbuf", What: "PoolShard.FromBytes + FreeChain, 1500 B", Moves: "*.ns_per_msg on http_get"},
	{Name: "mbuf.heap_share", Unit: "ratio", Better: lower, Layer: "mbuf", What: "Stats.HeapAllocs / Allocs over the workload", Moves: "allocs_per_msg_plus1 on fleet_gossip, udp_rpc"},
	{Name: "mbuf.overflow_share", Unit: "ratio", Better: lower, Layer: "mbuf", What: "Stats.OverflowGets / Allocs over the workload", Moves: "allocs_per_msg_plus1 on fleet_gossip, udp_rpc"},

	{Name: "layers.ether_decode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "Ethernet.Decode on the captured ACK", Moves: "*.ns_per_msg on tcp_rx_k14"},
	{Name: "layers.ipv4_decode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "IPv4.Decode (header checksum) on the captured ACK", Moves: "*.ns_per_msg on tcp_rx_k14"},
	{Name: "layers.tcp_decode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "TCP.Decode (segment checksum) on the captured ACK", Moves: "*.ns_per_msg on tcp_rx_k14"},
	{Name: "layers.udp_decode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "UDP.Decode on the captured RPC call", Moves: "*.ns_per_msg on udp_rpc, fleet_gossip"},
	{Name: "layers.tcp_encode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "TCP.Encode of a bare header", Moves: "*.ns_per_msg on http_get"},
	{Name: "layers.udp_encode_ns", Unit: "ns", Better: lower, Layer: "layers", What: "UDP.Encode over the RPC call payload", Moves: "*.ns_per_msg on udp_rpc"},

	{Name: "checksum.sum_ns.40B", Unit: "ns", Better: lower, Layer: "checksum", What: "Accumulator.Add + Sum16 over 40 B", Moves: "*.ns_per_msg on tcp_rx_k14"},
	{Name: "checksum.sum_ns.552B", Unit: "ns", Better: lower, Layer: "checksum", What: "Accumulator.Add + Sum16 over 552 B", Moves: "*.ns_per_msg on http_get, udp_rpc"},

	{Name: "dispatch.static_key_ns", Unit: "ns", Better: lower, Layer: "dispatch", What: "Static.Key + Shard per frame", Moves: "netstack.shard2_ns_per_msg only"},
	{Name: "dispatch.loadaware_ns", Unit: "ns", Better: lower, Layer: "dispatch", What: "LoadAware.Key + Shard per frame", Moves: "netstack.shard2_ns_per_msg only"},
	{Name: "dispatch.rpcxid_key_ns", Unit: "ns", Better: lower, Layer: "dispatch", What: "RPCDispatch.Key + Shard on the RPC call", Moves: "netstack.shard2_ns_per_msg only"},

	{Name: "flowtable.lookup_hit_ns.f8", Unit: "ns", Better: lower, Layer: "flowtable", What: "Table.Lookup hit, 8 live keys", Moves: "none end to end (the flow cache answers first)"},
	{Name: "flowtable.lookup_hit_ns.f4096", Unit: "ns", Better: lower, Layer: "flowtable", What: "Table.Lookup hit, 4096 live keys, seeded order", Moves: "*.ns_per_msg on tcp_rx_k14; not tcp_rx_k1"},
	{Name: "flowtable.cache_hit_rate", Unit: "ratio", Better: higher, Layer: "flowtable", What: "Host.FlowStats().CacheHitRate of the receiving LDLP host", Moves: "*.ns_per_msg on tcp_rx_k14"},
	{Name: "flowtable.probe_depth_p99", Unit: "count", Better: lower, Layer: "flowtable", What: "Host.FlowStats().ProbeDepthP99", Moves: "*.ns_per_msg on tcp_rx_k14"},

	{Name: "core.conv_ns_per_msg", Unit: "ns", Better: lower, Layer: "core", What: "5 empty layers, Conventional: Inject", Moves: "conv.ns_per_msg on tcp_rx_*"},
	{Name: "core.ldlp_ns_per_msg.k1", Unit: "ns", Better: lower, Layer: "core", What: "5 empty layers, LDLP: Inject + Run", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},
	{Name: "core.ldlp_ns_per_msg.k14", Unit: "ns", Better: lower, Layer: "core", What: "5 empty layers, LDLP: 14 x Inject + Run", Moves: "ldlp.ns_per_msg on tcp_rx_k14"},
	{Name: "core.queue_op_ns", Unit: "ns", Better: lower, Layer: "core", What: "(ldlp k1 - conv) / queue ops per message, empty layers", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},
	{Name: "core.queue_ops_per_msg", Unit: "count", Better: lower, Layer: "core", What: "Host.StackStats().QueueOps per message, LDLP hosts; repeats exactly", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},
	{Name: "core.mean_batch", Unit: "count", Better: higher, Layer: "core", What: "mean of the ldlp-batch histogram", Moves: "ldlp.ns_per_msg; 1 on tcp_rx_k1, 14 on tcp_rx_k14"},
	{Name: "core.shard_ns_per_msg.s1", Unit: "ns", Better: lower, Layer: "core", What: "ShardedStack, 1 shard, empty layers: Inject, Drain every 64", Moves: "netstack.shard2_ns_per_msg"},
	{Name: "core.shard_ns_per_msg.s2", Unit: "ns", Better: lower, Layer: "core", What: "ShardedStack, 2 shards, same", Moves: "netstack.shard2_ns_per_msg"},

	{Name: "netstack.frame_alloc_ns", Unit: "ns", Better: lower, Layer: "netstack", What: "traced self time of Host.FrameFromBytes per message", Moves: "*.ns_per_msg on tcp_rx_*"},
	{Name: "netstack.inject_ns", Unit: "ns", Better: lower, Layer: "netstack", What: "traced self time of Host.InjectFrame per message (under LDLP: the enqueue)", Moves: "ldlp.ns_per_msg on tcp_rx_*"},
	{Name: "netstack.pump_ns", Unit: "ns", Better: lower, Layer: "netstack", What: "traced self time of Host.Pump per message (under LDLP: the whole receive path)", Moves: "ldlp.ns_per_msg on tcp_rx_*"},
	{Name: "netstack.wire_ns", Unit: "ns", Better: lower, Layer: "netstack", What: "traced self time of Net.RunUntilIdle per message", Moves: "*.ns_per_msg on udp_rpc, http_get"},
	{Name: "netstack.ldlp_over_conv", Unit: "ratio", Better: lower, Layer: "netstack", What: "median of ldlp/conv ns_per_msg taken window pair by window pair", Moves: "the paper's comparison, on every workload"},
	{Name: "netstack.residual_ns", Unit: "ns", Better: lower, Layer: "netstack", What: "conv.ns_per_msg minus the mbuf, decode, table-lookup and core rows", Moves: "transport logic, counters, packet recycle: tcp_rx_k14"},
	{Name: "netstack.shard2_ns_per_msg", Unit: "ns", Better: lower, Layer: "netstack", What: "8-flow ACK replay under ShardedOptions(2), bursts of 64; repeats within ~12 %", Moves: "not gating"},
	{Name: "netstack.breakeven_k", Unit: "count", Better: lower, Layer: "netstack", What: "smallest sweep k with ldlp <= conv; 0 if none", Moves: "the native LDLP curve"},
	{Name: "netstack.udp_rx_ns_per_msg.conv", Unit: "ns", Better: lower, Layer: "netstack", What: "captured RPC call into a bound socket, then Recv; Conventional", Moves: "conv.ns_per_msg on udp_rpc, fleet_gossip"},
	{Name: "netstack.udp_rx_ns_per_msg.ldlp", Unit: "ns", Better: lower, Layer: "netstack", What: "same, LDLP", Moves: "ldlp.ns_per_msg on udp_rpc, fleet_gossip"},
	{Name: "netstack.udp_rx_allocs_per_msg", Unit: "count", Better: lower, Layer: "netstack", What: "Mallocs per datagram on that path", Moves: "allocs_per_msg_plus1 on udp_rpc, fleet_gossip"},
	{Name: "netstack.tx_udp_ns_per_frame", Unit: "ns", Better: lower, Layer: "netstack", What: "UDPSock.SendTo into a carrier that frees the frame", Moves: "*.ns_per_msg on udp_rpc, fleet_gossip"},
	{Name: "netstack.fastpath_share", Unit: "ratio", Better: higher, Layer: "netstack", What: "TCPFastPath / (fast + slow), LDLP hosts", Moves: "*.ns_per_msg on http_get"},
	{Name: "netstack.delayed_acks_per_msg", Unit: "count", Better: lower, Layer: "netstack", What: "Counters.DelayedAcks per message", Moves: "*.ns_per_msg on http_get"},
	{Name: "netstack.retransmits", Unit: "count", Better: lower, Layer: "netstack", What: "Counters.Retransmits (must stay 0)", Moves: "failed"},
	{Name: "netstack.drops", Unit: "count", Better: lower, Layer: "netstack", What: "Bad*, NoSocket, TimeoutDrops, StackStats.Dropped (must stay 0)", Moves: "failed"},
	{Name: "netstack.tx_batch_mean", Unit: "count", Better: higher, Layer: "netstack", What: "mean of the tx-batch histogram", Moves: "ldlp.ns_per_msg on http_get, udp_rpc"},
	{Name: "netstack.queue_depth_max", Unit: "count", Better: lower, Layer: "netstack", What: "StackStats().LargestBatch: the deepest queue a layer drained", Moves: "bounded by InputLimit"},

	{Name: "telemetry.ring_record_ns", Unit: "ns", Better: lower, Layer: "telemetry", What: "Ring.Record", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: lower, Layer: "telemetry", What: "Hist.Observe", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},
	{Name: "telemetry.off_delta_ns", Unit: "ns", Better: higher, Layer: "telemetry", What: "sweep k1 LDLP ns/msg with telemetry.Enable(false) minus enabled", Moves: "ldlp.ns_per_msg on tcp_rx_k1"},

	{Name: "faults.verdict_ns", Unit: "ns", Better: lower, Layer: "faults", What: "Injector.Frame, bernoulli preset", Moves: "*.ns_per_msg on fleet_gossip"},
	{Name: "faults.new_injector_ns", Unit: "ns", Better: lower, Layer: "faults", What: "faults.New", Moves: "*.ns_per_msg on fleet_gossip"},
	{Name: "faults.new_injector_bytes", Unit: "B", Better: lower, Layer: "faults", What: "TotalAlloc per faults.New", Moves: "live_heap_mb on fleet_gossip"},

	{Name: "rpc.client_call_ns", Unit: "ns", Better: lower, Layer: "rpc", What: "traced self time of Client.Call per call", Moves: "*.ns_per_msg on udp_rpc"},
	{Name: "rpc.server_poll_ns", Unit: "ns", Better: lower, Layer: "rpc", What: "traced self time of Server.Poll per call", Moves: "*.ns_per_msg on udp_rpc"},
	{Name: "rpc.client_poll_ns", Unit: "ns", Better: lower, Layer: "rpc", What: "traced self time of Client.Poll per call", Moves: "*.ns_per_msg on udp_rpc"},
	{Name: "rpc.allocs_per_call", Unit: "count", Better: lower, Layer: "rpc", What: "Mallocs inside those three calls, per GETATTR call", Moves: "allocs_per_msg_plus1 on udp_rpc"},

	{Name: "httpd.client_get_ns", Unit: "ns", Better: lower, Layer: "httpd", What: "traced self time of Client.Get per request", Moves: "*.ns_per_msg on http_get"},
	{Name: "httpd.server_poll_ns", Unit: "ns", Better: lower, Layer: "httpd", What: "traced self time of Server.Poll per request", Moves: "*.ns_per_msg on http_get"},
	{Name: "httpd.client_poll_ns", Unit: "ns", Better: lower, Layer: "httpd", What: "traced self time of Client.Poll per request", Moves: "*.ns_per_msg on http_get"},

	{Name: "fleet.build_s", Unit: "s", Better: lower, Layer: "fleet", What: "fleet.New wall time, 512 nodes", Moves: "setup_s on fleet_gossip"},
	{Name: "fleet.run_self_ns", Unit: "ns", Better: lower, Layer: "fleet", What: "traced self time of Fleet.Run per delivered frame: scheduler, links, faults and the hosts' receive paths", Moves: "ldlp.ns_per_msg on fleet_gossip"},
	{Name: "fleet.events_per_s.conv", Unit: "1/s", Better: higher, Layer: "fleet", What: "Stats.Events / Run wall, Conventional", Moves: "conv.ns_per_msg on fleet_gossip"},
	{Name: "fleet.events_per_s.ldlp", Unit: "1/s", Better: higher, Layer: "fleet", What: "Stats.Events / Run wall, LDLP", Moves: "ldlp.ns_per_msg on fleet_gossip"},
	{Name: "fleet.allocs_per_event", Unit: "count", Better: lower, Layer: "fleet", What: "Mallocs / Events over one LDLP run", Moves: "allocs_per_msg_plus1 on fleet_gossip"},
	{Name: "fleet.bytes_per_event", Unit: "B", Better: lower, Layer: "fleet", What: "TotalAlloc / Events over one LDLP run", Moves: "bytes_per_msg_plus1 on fleet_gossip"},
	{Name: "fleet.mean_batch", Unit: "count", Better: higher, Layer: "fleet", What: "Delivered / Batches, LDLP; exact per seed", Moves: "ldlp.ns_per_msg on fleet_gossip"},
	{Name: "fleet.max_batch", Unit: "count", Better: lower, Layer: "fleet", What: "Stats.MaxBatch, LDLP; exact per seed", Moves: "none"},
	{Name: "fleet.inbox_drops", Unit: "count", Better: lower, Layer: "fleet", What: "Stats.InboxDrops; exact per seed", Moves: "none"},
	{Name: "fleet.fault_drops", Unit: "count", Better: lower, Layer: "fleet", What: "Stats.Faults.Dropped (the links' 10 % loss); exact per seed", Moves: "none: an input"},
	{Name: "fleet.sim_delivery_p99_ns.conv", Unit: "ns", Better: lower, Layer: "fleet", What: "simulated send-to-service p99, Conventional: a model output, not wall time", Moves: "never gating"},
	{Name: "fleet.sim_delivery_p99_ns.ldlp", Unit: "ns", Better: lower, Layer: "fleet", What: "same, LDLP", Moves: "never gating"},
	{Name: "fleet.sim_latency_ratio", Unit: "ratio", Better: higher, Layer: "fleet", What: "conv / ldlp simulated p99", Moves: "never gating"},
	{Name: "gossip.app_ns", Unit: "ns", Better: lower, Layer: "gossip", What: "traced self time of the runner's Poll and Timer hooks per delivered frame", Moves: "ldlp.ns_per_msg on fleet_gossip"},
	{Name: "gossip.rounds_per_step", Unit: "count", Better: lower, Layer: "gossip", What: "datagrams sent per node per step; exact per seed", Moves: "never gating"},
	{Name: "gossip.codec_ns", Unit: "ns", Better: lower, Layer: "gossip", What: "Msg.AppendTo + Decode, 16 vector entries", Moves: "*.ns_per_msg on fleet_gossip"},
}

func sweepName(c cfgID, k int) string {
	return fmt.Sprintf("netstack.%s_ns_per_msg.k%d", cfgNames[c], k)
}

func init() {
	// The sweep rows: netstack.{conv,ldlp}_ns_per_msg.k{1,2,4,8,14,32}.
	for _, k := range sweepKs {
		for c := conv; c < numCfgs; c++ {
			perLayer = append(perLayer, metricDef{
				Name: sweepName(c, k), Unit: "ns", Better: lower, Layer: "netstack",
				What:  fmt.Sprintf("batch sweep: 8-flow ACK replay, %d frames per pump, %s", k, cfgNames[c]),
				Moves: "k1 and k14 track " + cfgNames[c] + ".ns_per_msg on tcp_rx_k1 and tcp_rx_k14",
			})
		}
	}
}

// exactNames lists, per workload, the readings that are a function of
// the seed alone: -selfcheck fails if any differs between two same-seed
// runs. (http_get's counts depend on where in the delayed-ACK cycle the
// last window stopped, so it has none.)
var exactNames = map[string][]string{
	"tcp_rx_k1":  {"core.queue_ops_per_msg"},
	"tcp_rx_k14": {"core.queue_ops_per_msg"},
	"udp_rpc":    {"core.queue_ops_per_msg"},
	"fleet_gossip": {
		"core.queue_ops_per_msg", "fleet.mean_batch", "fleet.max_batch", "fleet.inbox_drops", "fleet.fault_drops",
		"fleet.sim_delivery_p99_ns.conv", "fleet.sim_delivery_p99_ns.ldlp", "fleet.sim_latency_ratio",
		"gossip.rounds_per_step", "fleet.history_hash",
	},
}
