package main

import (
	"math"
	"sort"
)

// summary is what the harness prints for every sampled metric: the sample
// count, the median, and the first and third quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile returns the p-quantile of sorted by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses: the driver computes the
// run-to-run spread that way, so the harness's own quartiles match it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// summarize sorts a copy of vs and returns its count, median and quartiles.
func summarize(vs []float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(vs []float64) float64 { return summarize(vs).Median }

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
