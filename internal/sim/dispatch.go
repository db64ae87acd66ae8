package sim

import (
	"math/rand"
	"sort"

	"ldlp/internal/dispatch"
	"ldlp/internal/layers"
	"ldlp/internal/stats"
)

// Modeled receive-side dispatch under flow skew. The netstack's shard
// engine routes each frame by its flow key modulo the shard count
// (dispatch.Static's mapping); this model strips that engine to its
// queueing skeleton — N single-server queues in discrete slots, one
// service per shard per slot — and feeds it a Zipf-distributed flow
// population, the regime where a static flow hash is weakest: a handful
// of elephant flows pin their shards near or past saturation while the
// rest idle. Running the *real* policy implementations (dispatch.Static,
// dispatch.LoadAware) against the modeled queues shows what rebalancing
// would buy: worst-shard utilization bounded near the elephant share
// instead of the elephant-plus-mice share, and the p99 queueing delay of
// an overloaded shard collapsing back to the stable-queue regime.

// DispatchSkewConfig parameterizes one modeled run.
type DispatchSkewConfig struct {
	// Shards is the modeled worker count (the engine's RxShards).
	Shards int
	// Buckets is the load-aware policy's indirection-table size.
	Buckets int
	// Flows is the flow population size.
	Flows int
	// ZipfS is the Zipf exponent (> 1; larger = more skew).
	ZipfS float64
	// Rho is the offered load per shard in arrivals per slot, so the
	// total arrival rate is Rho*Shards against Shards unit servers.
	Rho float64
	// Slots is the simulated horizon.
	Slots int
	// RebalanceEvery is the policy's rebalance period in slots — the
	// model's stand-in for the netstack's per-tick quiescent point.
	RebalanceEvery int
	// Seed drives the flow draws.
	Seed int64
}

// DefaultDispatchSkew is the figure's configuration: four shards at 80%
// offered load each, 4k flows with the top flow holding roughly a fifth
// of the traffic — enough to push the static elephant shard past
// saturation while the aggregate stays under it.
func DefaultDispatchSkew() DispatchSkewConfig {
	return DispatchSkewConfig{
		Shards: 4, Buckets: dispatch.DefaultBuckets, Flows: 4096,
		ZipfS: 1.2, Rho: 0.8, Slots: 20000, RebalanceEvery: 500, Seed: 1,
	}
}

// DispatchSkewResult summarizes one modeled run.
type DispatchSkewResult struct {
	// Policy is the dispatch policy's name.
	Policy string
	// ShardArrivals counts arrivals routed to each shard.
	ShardArrivals []int64
	// Imbalance is the worst shard's arrival share over the fair share
	// (1.0 = perfectly balanced, Shards = everything on one shard).
	Imbalance float64
	// MeanWait and P99Wait are queueing delays in slots, measured at
	// enqueue as the number of messages ahead in the shard's queue.
	MeanWait, P99Wait float64
	// Rebalances and BucketMoves count the policy's rebalance activity.
	Rebalances, BucketMoves int64
}

// RunDispatchSkew drives cfg.Slots slots of Zipf traffic through pol
// over N modeled shard queues. Arrivals are deterministic in aggregate
// (a fractional accumulator releases Rho*Shards messages per slot); only
// the flow identity of each message is random, so two runs with the same
// seed offer byte-identical load to both policies.
func RunDispatchSkew(cfg DispatchSkewConfig, pol dispatch.Policy) DispatchSkewResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Flows-1))

	// Flow keys come from the real key builder over synthetic tuples, so
	// the policy sees the hash distribution production frames would give.
	srv := layers.IPAddr{10, 0, 0, 2}
	keys := make([]uint64, cfg.Flows)
	for f := range keys {
		src := layers.IPAddr{10, byte(f >> 16), byte(f >> 8), byte(f)}
		keys[f] = dispatch.TupleKey(src, srv, layers.ProtoUDP, uint16(1024+f%60000), 9)
	}

	res := DispatchSkewResult{Policy: pol.Name(), ShardArrivals: make([]int64, cfg.Shards)}
	depth := make([]int, cfg.Shards)
	waits := make([]float64, 0, int(float64(cfg.Slots)*cfg.Rho*float64(cfg.Shards))+1)
	acc := 0.0
	for slot := 0; slot < cfg.Slots; slot++ {
		acc += cfg.Rho * float64(cfg.Shards)
		for ; acc >= 1; acc-- {
			f := int(zipf.Uint64())
			s := pol.Shard(keys[f], cfg.Shards)
			res.ShardArrivals[s]++
			waits = append(waits, float64(depth[s]))
			depth[s]++
		}
		for s := range depth {
			if depth[s] > 0 {
				depth[s]--
			}
		}
		if cfg.RebalanceEvery > 0 && (slot+1)%cfg.RebalanceEvery == 0 {
			if migs := pol.Rebalance(nil); len(migs) > 0 {
				res.Rebalances++
				res.BucketMoves += int64(len(migs))
			}
		}
	}

	var total, max int64
	for _, a := range res.ShardArrivals {
		total += a
		if a > max {
			max = a
		}
	}
	if total > 0 {
		res.Imbalance = float64(max) * float64(cfg.Shards) / float64(total)
		sum := 0.0
		for _, w := range waits {
			sum += w
		}
		res.MeanWait = sum / float64(len(waits))
		sort.Float64s(waits)
		res.P99Wait = waits[(len(waits)*99)/100]
	}
	return res
}

// FigureDispatchSkew runs the static and load-aware policies over the
// same Zipf load and tabulates them — the repo's figure for what
// programmable dispatch buys on skewed small-message traffic. The x
// column is 0 for static, 1 for load-aware.
func FigureDispatchSkew(cfg DispatchSkewConfig) *stats.Table {
	tab := stats.NewTable(
		"Receive dispatch under Zipf flow skew: static hash vs load-aware resharding",
		"load-aware", "imbalance", "p99-wait-slots", "mean-wait-slots", "bucket-moves")
	st := RunDispatchSkew(cfg, dispatch.Static{})
	la := RunDispatchSkew(cfg, dispatch.NewLoadAware(cfg.Shards, cfg.Buckets))
	tab.Add(0, st.Imbalance, st.P99Wait, st.MeanWait, float64(st.BucketMoves))
	tab.Add(1, la.Imbalance, la.P99Wait, la.MeanWait, float64(la.BucketMoves))
	return tab
}
