package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by the exclusive
// method (the one Python's statistics.quantiles(n=4) uses), so the spreads
// `compare` prints are the ones the acceptance runs compute. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// percentile returns the p-th percentile (nearest rank) of vs and how many
// samples lie strictly beyond it. A tail figure is only worth quoting when
// that count is at least ten; callers print it beside the value.
func percentile(vs []float64, p float64) (v float64, beyond int) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v = s[rank-1]
	for i := n - 1; i >= 0 && s[i] > v; i-- {
		beyond++
	}
	return v, beyond
}

// pairedMedianRatio returns the median of a[i]/b[i]: the two sides of each
// pair ran back to back, so drift cancels inside a pair and the median
// drops the pair a GC cycle or a noisy neighbour landed in.
func pairedMedianRatio(a, b []float64) float64 {
	r := make([]float64, len(a))
	for i := range a {
		r[i] = a[i] / b[i]
	}
	return median(r)
}

// precisionBits is −log2 of the worst slot error, capped where the error is
// below double precision so a perfect match still yields a finite number.
func precisionBits(maxErr float64) float64 {
	if maxErr < 1e-18 {
		maxErr = 1e-18
	}
	return -math.Log2(maxErr)
}
