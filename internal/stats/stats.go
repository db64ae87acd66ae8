// Package stats provides small streaming-statistics helpers used by the
// simulation and benchmark harnesses: running moments, histograms with
// percentile estimation, and formatted sweep tables.
//
// Everything here is deliberately allocation-light: the simulator records a
// sample per message and sweeps run hundreds of seconds of simulated time,
// so recorders are updated on the hot path.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming mean and variance using Welford's method.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N reports the number of samples added.
func (r *Running) N() int64 { return r.n }

// Mean reports the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Var reports the unbiased sample variance, or 0 with fewer than two samples.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Merge folds the samples summarized by other into r, as if every sample
// added to other had been added to r. Merging an empty recorder is a no-op.
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	mean := r.mean + d*float64(other.n)/float64(n)
	m2 := r.m2 + other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}

// Reset discards all samples.
func (r *Running) Reset() { *r = Running{} }

// Histogram is a fixed-bucket linear histogram over [Lo, Hi) with overflow
// and underflow buckets, supporting approximate quantiles. Construct with
// NewHistogram.
type Histogram struct {
	lo, hi  float64
	width   float64
	buckets []int64
	under   int64
	over    int64
	n       int64
	moments Running
}

// NewHistogram builds a histogram spanning [lo, hi) with nbuckets equal
// buckets. It panics if the range is empty or nbuckets < 1; both indicate
// a programming error at a call site with constant arguments.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if !(hi > lo) || nbuckets < 1 {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) x%d", lo, hi, nbuckets))
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(nbuckets),
		buckets: make([]int64, nbuckets),
	}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	h.moments.Add(x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard the x == hi-epsilon float edge
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// N reports the total number of samples.
func (h *Histogram) N() int64 { return h.n }

// Mean reports the exact sample mean (tracked outside the buckets).
func (h *Histogram) Mean() float64 { return h.moments.Mean() }

// Max reports the exact largest sample.
func (h *Histogram) Max() float64 { return h.moments.Max() }

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) using
// linear interpolation within the containing bucket. Samples in the
// underflow bucket report lo; samples in the overflow bucket report the
// exact observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.moments.Min()
	}
	if q >= 1 {
		return h.moments.Max()
	}
	rank := q * float64(h.n)
	cum := float64(h.under)
	if rank <= cum {
		return h.lo
	}
	for i, c := range h.buckets {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			frac := (rank - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.moments.Max()
}

// Merge folds other's samples into h. Both histograms must have identical
// bucket geometry; Merge panics otherwise (a programming error).
func (h *Histogram) Merge(other *Histogram) {
	if h.lo != other.lo || h.hi != other.hi || len(h.buckets) != len(other.buckets) {
		panic("stats: merging histograms with different geometry")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.n += other.n
	h.moments.Merge(&other.moments)
}

// Point is one row of a parameter sweep: an x value and a set of named
// y series values.
type Point struct {
	X float64
	Y map[string]float64
}

// Table accumulates sweep results and renders them as an aligned
// tab-separated table, one row per x value, matching the series the paper's
// figures plot.
type Table struct {
	Name   string
	XLabel string
	Series []string // column order
	Points []Point
}

// NewTable creates a sweep table with the given column order.
func NewTable(name, xlabel string, series ...string) *Table {
	return &Table{Name: name, XLabel: xlabel, Series: series}
}

// Add appends one row. The ys must be given in Series order.
func (t *Table) Add(x float64, ys ...float64) {
	if len(ys) != len(t.Series) {
		panic(fmt.Sprintf("stats: table %q expects %d series, got %d", t.Name, len(t.Series), len(ys)))
	}
	m := make(map[string]float64, len(ys))
	for i, y := range ys {
		m[t.Series[i]] = y
	}
	t.Points = append(t.Points, Point{X: x, Y: m})
}

// String renders the table with a header line, sorted by x.
func (t *Table) String() string {
	pts := make([]Point, len(t.Points))
	copy(pts, t.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	s := "# " + t.Name + "\n" + t.XLabel
	for _, name := range t.Series {
		s += "\t" + name
	}
	s += "\n"
	for _, p := range pts {
		s += formatFloat(p.X)
		for _, name := range t.Series {
			s += "\t" + formatFloat(p.Y[name])
		}
		s += "\n"
	}
	return s
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
