package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank, so p99
// needs at least 1000 samples and p50 at least 20. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v: want 0 < q < 1", q)
	}
	n := len(xs)
	idx := max(int(math.Ceil(q*float64(n)))-1, 0)
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, max(beyond, 0), minBeyond)
	}
	sort.Float64s(xs)
	return xs[idx], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. xs is sorted in
// place; an empty slice yields NaN.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread printed here is the one a reader computing it in
// Python gets. Needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
