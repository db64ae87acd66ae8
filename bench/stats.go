package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses — the one the
// acceptance rule for this benchmark is written against. Fewer than two
// samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4, exclusive method
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// best is the estimator every timing metric uses: the smallest of
// repeated readings (the windows of a run, its set-ups, the samples of a
// micro-timing). The box this was written on is a shared VM whose cores
// drop from turbo to base clock, 1.7 x slower, for spells of a few
// tenths of a second to a few seconds whenever its neighbours are busy:
// a 12 us stretch of dependent ALU work reads 17.3 us in every quiet
// spell and ~30 us in the others. Interference only ever adds time, so
// readings of one piece of code cluster at a floor and scatter upwards;
// over ten runs the median of a run's windows moved by 15-35 %, their
// lower quartile by 4-30 %, their minimum by 1-5 %. Across runs the
// statistic is the median.
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// spread is the interquartile distance of xs as a share of their median:
// the run-to-run noise figure the bounds are sized against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailHist records per-round timings for the p99 metrics in a fixed
// log-scale histogram (0.5 % per bucket), so the sample store neither
// grows inside a timed window (which would count against the
// allocation metrics) nor shows up in live_heap_mb.
type tailHist struct {
	counts [tailBuckets]uint32
	n      int64
}

const (
	tailBuckets = 4700 // e^(4700/200) ns ≈ 16 s: beyond any round
	tailScale   = 200  // buckets per e-fold: 1/ln(1.005)
)

func tailBucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	return min(int(math.Log(ns)*tailScale), tailBuckets-1)
}

func (h *tailHist) observe(ns float64) {
	h.counts[tailBucket(ns)]++
	h.n++
}

// quantile returns the q-quantile, interpolated by rank inside the
// bucket that holds it (so the reading keeps its digits instead of
// snapping to a bucket edge). 0 with no samples.
func (h *tailHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Exp(float64(b) / tailScale)
			hi := math.Exp(float64(b+1) / tailScale)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Exp(tailBuckets / tailScale)
}
