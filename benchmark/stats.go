package main

import (
	"math"
	"slices"

	"lhws/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// sorted. ok is false when fewer than ten samples lie beyond the
// percentile: the value is then a guess at the tail, and callers print
// it marked as under-sampled.
func percentile(sorted []int64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]), n-1-i >= 10
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// p50 and p99 of unsorted samples, 0 when there are none.
func p50(v []int64) float64 { x, _ := percentile(sortedCopy(v), 0.50); return x }
func p99(v []int64) float64 { x, _ := percentile(sortedCopy(v), 0.99); return x }

func median(v []float64) float64 { return stats.Percentile(v, 50) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// that -aa reports the spread the acceptance procedure will see.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return median(s), median(s)
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
