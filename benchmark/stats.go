package main

import "sort"

// quartiles returns the first quartile, median and third quartile of xs.
// The quartiles follow the exclusive method of Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's acceptance
// spreads are computed with, so the numbers printed here are the ones a
// reviewer recomputes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantile(s, 1), median(s), quantile(s, 3)
}

// quantile is the i-th of the four exclusive-method quartile cut points of
// the sorted sample s (len(s) >= 2).
func quantile(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
