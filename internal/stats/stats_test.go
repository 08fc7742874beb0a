package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 0.01 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); math.Abs(got-99.01) > 0.011 {
		t.Fatalf("p99 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestPercentileSingleAndEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Percentile(99)) {
		t.Fatal("empty percentile should be NaN")
	}
	s.Add(7)
	if s.Percentile(1) != 7 || s.Percentile(99) != 7 {
		t.Fatal("single-value percentiles")
	}
}

func TestPercentilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	for _, p := range []float64{0, -5, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("percentile %v should panic", p)
				}
			}()
			s.Percentile(p)
		}()
	}
}

func TestMeanMinMax(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1, 2})
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("mean=%v min=%v max=%v", s.Mean(), s.Min(), s.Max())
	}
	var e Sample
	if !math.IsNaN(e.Mean()) || !math.IsNaN(e.Min()) || !math.IsNaN(e.Max()) {
		t.Fatal("empty stats should be NaN")
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 1, 2, 4})
	cdf := s.CDF()
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf = %v", cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestFractionBelow(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); got != c.want {
			t.Fatalf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestJain(t *testing.T) {
	if j := Jain([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal allocations: %v", j)
	}
	// One user hogging everything: index = 1/n.
	if j := Jain([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("max unfairness: %v", j)
	}
	if !math.IsNaN(Jain(nil)) || !math.IsNaN(Jain([]float64{0, 0})) {
		t.Fatal("degenerate Jain should be NaN")
	}
}

// Property: percentiles are monotone in p and bounded by [min, max].
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, seed int64) bool {
		var s Sample
		ok := false
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		prev := math.Inf(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := s.Percentile(p)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is monotone, ends at 1, and FractionBelow agrees with it.
func TestQuickCDFConsistency(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n)+1; i++ {
			s.Add(float64(rng.Intn(20)))
		}
		cdf := s.CDF()
		prevX, prevF := math.Inf(-1), 0.0
		for _, pt := range cdf {
			if pt.X <= prevX || pt.F <= prevF {
				return false
			}
			if math.Abs(s.FractionBelow(pt.X)-pt.F) > 1e-12 {
				return false
			}
			prevX, prevF = pt.X, pt.F
		}
		return cdf[len(cdf)-1].F == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Jain's index lies in [1/n, 1] for positive allocations.
func TestQuickJainBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%20) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = float64(rng.Float64()*100) + 0.001
		}
		j := Jain(xs)
		return j >= 1/float64(m)-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting the values slice matches Values().
func TestQuickValuesSorted(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				s.Add(v)
				clean = append(clean, v)
			}
		}
		sort.Float64s(clean)
		got := s.Values()
		if len(got) != len(clean) {
			return false
		}
		for i := range got {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
