package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail percentile resting on fewer samples is one or two
// outliers, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples ranked above it. ok is false when fewer than minBeyond
// samples lie beyond the rank, in which case the value must not be reported.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads the repeat mode prints are the ones a reader recomputes from the
// per-run values.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0: layer ratios over a workload that
// never exercises the layer read as zero, not as NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
