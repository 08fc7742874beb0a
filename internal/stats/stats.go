// Package stats provides the summary statistics the paper reports:
// percentiles (the evaluation's headline metric is the 99th percentile of
// completion times), empirical CDFs (Figures 4-6), and Jain's fairness
// index (§5.6).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs []float64) {
	s.vals = append(s.vals, vs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Values returns the (sorted) observations; the slice must not be modified.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.vals
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using linear
// interpolation between closest ranks. Returns NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of (0,100]", p))
	}
	s.sort()
	if len(s.vals) == 1 {
		return s.vals[0]
	}
	// Each float64(...) rounds a product on its own, so no platform fuses
	// it into the following add or subtract (the goldens are unfused).
	rank := float64(p / 100 * float64(len(s.vals)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return float64(s.vals[lo]*(1-frac)) + float64(s.vals[hi]*frac)
}

// Mean returns the arithmetic mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the maximum (NaN when empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// Min returns the minimum (NaN when empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[0]
}

// CDFPoint is one point of an empirical CDF: fraction F of observations
// are <= X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF, one point per distinct value.
func (s *Sample) CDF() []CDFPoint {
	s.sort()
	n := len(s.vals)
	if n == 0 {
		return nil
	}
	var out []CDFPoint
	for i := 0; i < n; i++ {
		// Emit at the last occurrence of each distinct value: the values
		// are sorted, so a next value that is not larger is a duplicate.
		if i+1 < n && s.vals[i+1] <= s.vals[i] {
			continue
		}
		out = append(out, CDFPoint{X: s.vals[i], F: float64(i+1) / float64(n)})
	}
	return out
}

// FractionBelow returns the fraction of observations <= x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	i := sort.SearchFloat64s(s.vals, x)
	// Include equal values.
	for i < len(s.vals) && s.vals[i] <= x {
		i++
	}
	return float64(i) / float64(len(s.vals))
}

// Jain computes Jain's fairness index: (sum x)^2 / (n * sum x^2). It is 1
// for perfectly equal allocations and 1/n in the worst case. Returns NaN
// for empty input or all-zero allocations.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += float64(x * x) // rounded alone: never fused into the add
	}
	if sumsq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
