package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 5 {
		t.Fatalf("N = %d, want 5", r.N())
	}
	if r.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", r.Mean())
	}
	if r.Var() != 2.5 {
		t.Errorf("Var = %v, want 2.5", r.Var())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 {
		t.Errorf("empty Running should report zeros, got mean=%v var=%v", r.Mean(), r.Var())
	}
}

func TestRunningSingleSampleVariance(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Var() != 0 {
		t.Errorf("Var with one sample = %v, want 0", r.Var())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var whole, left, right Running
		for _, x := range a {
			clean := math.Mod(x, 1e6)
			if math.IsNaN(clean) {
				clean = 0
			}
			whole.Add(clean)
			left.Add(clean)
		}
		for _, x := range b {
			clean := math.Mod(x, 1e6)
			if math.IsNaN(clean) {
				clean = 0
			}
			whole.Add(clean)
			right.Add(clean)
		}
		left.Merge(&right)
		if whole.N() != left.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return almostEqual(whole.Mean(), left.Mean(), 1e-9) &&
			almostEqual(whole.Var(), left.Var(), 1e-9) &&
			whole.Min() == left.Min() && whole.Max() == left.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&b) // empty rhs: no-op
	if a != before {
		t.Errorf("merge of empty changed recorder: %+v -> %+v", before, a)
	}
	b.Merge(&a) // empty lhs: copies
	if b.Mean() != 2 || b.N() != 2 {
		t.Errorf("merge into empty: mean=%v n=%d", b.Mean(), b.N())
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(5)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Errorf("after reset: n=%d mean=%v", r.N(), r.Mean())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 50, 2},
		{0.9, 90, 2},
		{0.99, 99, 2},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if h.Quantile(0) != 0 {
		t.Errorf("Quantile(0) = %v, want exact min 0", h.Quantile(0))
	}
	if h.Quantile(1) != 99 {
		t.Errorf("Quantile(1) = %v, want exact max 99", h.Quantile(1))
	}
}

func TestHistogramOverflowUnderflow(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(100)
	h.Add(5)
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3", h.N())
	}
	// Max must be exact even though 100 landed in the overflow bucket.
	if h.Max() != 100 {
		t.Errorf("Max = %v, want 100", h.Max())
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("Quantile(1) = %v, want 100", q)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	// Mean should not be quantized to bucket width.
	h.Add(0.1)
	h.Add(0.2)
	if !almostEqual(h.Mean(), 0.15, 1e-12) {
		t.Errorf("Mean = %v, want 0.15", h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		a.Add(rand.Float64() * 10)
		b.Add(rand.Float64() * 10)
	}
	n := a.N() + b.N()
	a.Merge(b)
	if a.N() != n {
		t.Errorf("merged N = %d, want %d", a.N(), n)
	}
}

func TestHistogramMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched histograms should panic")
		}
	}()
	NewHistogram(0, 10, 10).Merge(NewHistogram(0, 20, 10))
}

func TestHistogramInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(5,5,...) should panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

// Property: for samples inside [lo,hi), quantile estimates are monotone in q
// and bounded by the data range.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(0, 1, 32)
		for i := 0; i < 200; i++ {
			h.Add(rng.Float64())
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("latency", "rate", "conv", "ldlp")
	tab.Add(2000, 1.5, 1.25)
	tab.Add(1000, 2, 1)
	s := tab.String()
	if !strings.Contains(s, "# latency") {
		t.Errorf("missing title: %q", s)
	}
	if !strings.Contains(s, "rate\tconv\tldlp") {
		t.Errorf("missing header: %q", s)
	}
	// Rows must come out sorted by x.
	i1 := strings.Index(s, "1000")
	i2 := strings.Index(s, "2000")
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("rows not sorted by x: %q", s)
	}
}

func TestTableArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong series arity should panic")
		}
	}()
	NewTable("t", "x", "a", "b").Add(1, 2)
}
