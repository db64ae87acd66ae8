package sim

import (
	"strings"
	"testing"

	"ldlp/internal/dispatch"
)

// TestDispatchSkewLoadAwareBeatsStatic is the acceptance check for the
// dispatch figure: under the default Zipf skew the load-aware policy
// must beat the static hash on both worst-shard balance and p99 wait,
// and must do it by actually moving buckets.
func TestDispatchSkewLoadAwareBeatsStatic(t *testing.T) {
	cfg := DefaultDispatchSkew()
	if testing.Short() {
		cfg.Slots = 6000
	}
	st := RunDispatchSkew(cfg, dispatch.Static{})
	la := RunDispatchSkew(cfg, dispatch.NewLoadAware(cfg.Shards, cfg.Buckets))

	var stTotal, laTotal int64
	for s := 0; s < cfg.Shards; s++ {
		stTotal += st.ShardArrivals[s]
		laTotal += la.ShardArrivals[s]
	}
	if stTotal != laTotal {
		t.Fatalf("policies saw different load: %d vs %d arrivals", stTotal, laTotal)
	}
	if st.Imbalance <= 1.05 {
		t.Fatalf("static run is not skewed (imbalance %.3f); the comparison is vacuous", st.Imbalance)
	}
	if la.Imbalance >= st.Imbalance {
		t.Errorf("load-aware imbalance %.3f did not beat static %.3f", la.Imbalance, st.Imbalance)
	}
	if la.P99Wait >= st.P99Wait {
		t.Errorf("load-aware p99 wait %.1f slots did not beat static %.1f", la.P99Wait, st.P99Wait)
	}
	if la.BucketMoves == 0 {
		t.Error("load-aware won without moving buckets — the policy was not exercised")
	}
	if st.BucketMoves != 0 || st.Rebalances != 0 {
		t.Errorf("static policy reported rebalance activity: %+v", st)
	}
}

// TestDispatchSkewDeterministic: same seed, same policy, same numbers —
// the figure must be reproducible.
func TestDispatchSkewDeterministic(t *testing.T) {
	cfg := DefaultDispatchSkew()
	cfg.Slots = 4000
	a := RunDispatchSkew(cfg, dispatch.NewLoadAware(cfg.Shards, cfg.Buckets))
	b := RunDispatchSkew(cfg, dispatch.NewLoadAware(cfg.Shards, cfg.Buckets))
	if a.Imbalance != b.Imbalance || a.P99Wait != b.P99Wait || a.BucketMoves != b.BucketMoves {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestFigureDispatchSkew(t *testing.T) {
	cfg := DefaultDispatchSkew()
	cfg.Slots = 4000
	tab := FigureDispatchSkew(cfg)
	out := tab.String()
	for _, want := range []string{"load-aware", "imbalance", "p99-wait-slots"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkDispatchSkewed is one full modeled run per policy, with the
// balance and tail-latency numbers attached as custom metrics: the
// static-vs-load-aware gap.
func BenchmarkDispatchSkewed(b *testing.B) {
	cases := []struct {
		name string
		mk   func(cfg DispatchSkewConfig) dispatch.Policy
	}{
		{"static", func(DispatchSkewConfig) dispatch.Policy { return dispatch.Static{} }},
		{"loadaware", func(cfg DispatchSkewConfig) dispatch.Policy {
			return dispatch.NewLoadAware(cfg.Shards, cfg.Buckets)
		}},
	}
	for _, pc := range cases {
		b.Run(pc.name, func(b *testing.B) {
			cfg := DefaultDispatchSkew()
			var res DispatchSkewResult
			for i := 0; i < b.N; i++ {
				res = RunDispatchSkew(cfg, pc.mk(cfg))
			}
			b.ReportMetric(res.Imbalance, "shard-imbalance")
			b.ReportMetric(res.P99Wait, "p99-wait-slots")
			b.ReportMetric(float64(res.BucketMoves), "bucket-moves")
		})
	}
}
