package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{n: 1000, p: 0.99, want: 990, beyond: 10, ok: true},
		{n: 999, p: 0.99, want: 990, beyond: 9, ok: false},
		{n: 100, p: 0.99, want: 99, beyond: 1, ok: false},
		{n: 200, p: 0.95, want: 190, beyond: 10, ok: true},
		{n: 199, p: 0.95, want: 190, beyond: 9, ok: false},
		{n: 21, p: 0.5, want: 11, beyond: 10, ok: true},
		{n: 20, p: 0.5, want: 10, beyond: 10, ok: true},
		{n: 19, p: 0.5, want: 10, beyond: 9, ok: false},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				c.n, c.p, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
