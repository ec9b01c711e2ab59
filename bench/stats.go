package main

// Sample statistics and the parent-versus-change verdict rule.

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples): the smallest sample with at least p% of the samples at or
// below it, so the result is always a measured value.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[max(rank(p, len(s))-1, 0)]
}

// rank is the nearest-rank position (1-based) of the p-th percentile of
// n samples; the epsilon keeps float error from bumping an exact rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest of the candidate percentiles that
// has at least 10 of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread is judged. One sample gives that
// sample three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Verdicts of a parent-versus-change comparison for one metric.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric's runs on the parent and on the change.
// parent[i] and change[i] form pair i (runs alternate, so pairs share
// conditions). lowerBetter gives the metric's direction and bound the
// share of the parent's median it may worsen by.
//
//   - improved: at least 10 pairs, the change wins at least 9/10 of all
//     pairs (ties count for neither side), and the medians differ in the
//     change's favour by more than the parent's interquartile distance;
//   - unresolved: otherwise, when the parent's own spread is wider than
//     the bound, unless every change run reads better than every parent
//     run (then unchanged);
//   - worse: the change's median is worse than the parent's by more than
//     bound times the parent's median;
//   - unchanged: anything else.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	q1, pMed, q3 := quartiles(parent)
	cMed := median(change)
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs >= 10 && wins*10 >= pairs*9 && better(cMed, pMed) && math.Abs(cMed-pMed) > q3-q1 {
		return verdictImproved
	}
	if spread(parent) > bound {
		if allBetter(change, parent, better) {
			return verdictUnchanged
		}
		return verdictUnresolved
	}
	if better(pMed, cMed) && math.Abs(cMed-pMed) > bound*math.Abs(pMed) {
		return verdictWorse
	}
	return verdictUnchanged
}

// allBetter reports whether every run in a reads better than every run
// in b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
