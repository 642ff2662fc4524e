package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile applies the percentile rule: the highest percentile on
// tailLadder with at least minBeyond of n samples beyond it (nearest
// rank). ok is false when n supports none of them.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// supports reports whether n samples support the q-quantile under the
// percentile rule.
func supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// maxOf returns the largest of xs (NaN when empty).
func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}
