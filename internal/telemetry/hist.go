package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the bucket count: bucket b holds values v with
// bits.Len64(v) == b, i.e. bucket 0 holds exactly 0 and bucket b>0
// holds [2^(b-1), 2^b). 64 buckets cover every non-negative int64.
const HistBuckets = 64

// Hist is a lock-free power-of-two-bucket histogram for non-negative
// integer samples (batch sizes, latencies in nanoseconds). Observe is a
// few atomic adds — safe from any number of goroutines — and snapshots
// merge exactly, so per-shard histograms aggregate without locks.
type Hist struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one sample (negative samples clamp to zero; the
// distributions this tracks are non-negative by construction).
//
//ldlp:hotpath
func (h *Hist) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))&(HistBuckets-1)].Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Snapshot copies the histogram's state; Count is the sum of the
// buckets, which is why Observe keeps no count word. Exact when writers
// are quiescent; a consistent-enough point-in-time view otherwise (bucket
// counts are read individually, so a snapshot taken mid-Observe may be
// one sample short in the aggregate fields).
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Reset zeroes the histogram (test hygiene; not for concurrent use with
// writers).
func (h *Hist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
	h.max.Store(0)
}

// HistSnapshot is a plain-value copy of a Hist, mergeable and JSON-
// stable. Merging snapshots from per-shard histograms yields exactly
// the histogram a single shared instance would have recorded.
type HistSnapshot struct {
	Buckets [HistBuckets]int64 `json:"buckets"`
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Max     int64              `json:"max"`
}

// Merge folds other into s bucket-wise.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the exact sample mean (the sum is tracked, not
// reconstructed from buckets).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by walking the buckets
// and interpolating linearly inside the covering bucket. Power-of-two
// buckets bound the relative error by 2x, which is what batch-size and
// latency tails need; the tracked Max caps the top bucket so p100 is
// exact.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(b)
		if float64(s.Max) < hi {
			hi = float64(s.Max)
		}
		if cum+float64(n) >= rank {
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += float64(n)
	}
	return float64(s.Max)
}

// bucketBounds returns bucket b's half-open value range [lo, hi).
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 0
	}
	lo = float64(uint64(1) << (b - 1))
	return lo, 2 * lo
}
