package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},    // even the median has only 9 beyond it
		{20, 50},   // 10 beyond the median
		{39, 50},   // p75 has 9 beyond
		{40, 75},   // p75 has 10 beyond
		{100, 90},  // p90 has 10 beyond, p95 only 5
		{199, 90},  // p95 has 9 beyond
		{200, 95},  // p95 has 10 beyond
		{1000, 99}, // p99 has 10 beyond
		{9999, 99}, // p99.9 has 9 beyond
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(xs, n=4) returns, which the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		want           string
	}{
		{"10 pairs all won, beyond the spread", steady, scale(steady, 0.9), true, 0.05, verdictImproved},
		{"higher is better", steady, scale(steady, 1.1), false, 0.05, verdictImproved},
		{"9 pairs are too few", steady[:9], scale(steady[:9], 0.9), true, 0.05, verdictUnchanged},
		{"within the spread", steady, scale(steady, 0.995), true, 0.05, verdictUnchanged},
		{"worse beyond the bound", steady, scale(steady, 1.1), true, 0.05, verdictWorse},
		{"worse within the bound", steady, scale(steady, 1.03), true, 0.05, verdictUnchanged},
		{"noisy parent", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 70}, scale(steady, 1.03), true, 0.05, verdictUnresolved},
		{"noisy parent, change better throughout", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 70}, scale(steady, 0.4), true, 0.05, verdictUnchanged},
	} {
		if got := verdict(c.parent, c.change, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	// 8 of 10 pairs won is not 9/10, even with a large median gain.
	parent := append([]float64(nil), steady...)
	change := scale(steady, 0.8)
	change[0], change[1] = 200, 200
	if got := verdict(parent, change, true, 0.05); got == verdictImproved {
		t.Errorf("8/10 pairs: verdict = %s, want not improved", got)
	}
	// A tie counts for neither side: 9 wins and a tie of 10 pairs is 9/10.
	change = scale(steady, 0.8)
	change[0] = parent[0]
	if got := verdict(parent, change, true, 0.05); got != verdictImproved {
		t.Errorf("9 wins and a tie: verdict = %s, want improved", got)
	}
}
