package sat

import (
	"math/rand"
	"testing"
)

// firstModel enumerates every assignment of n variables satisfying the
// clauses and the assumptions, and returns the prefix (variables
// 1..len(phase)) of the first one in DecideFirst's order: variable 1
// first, each preferring its phase. ok is false when there is no model.
func firstModel(n int, clauses [][]int, assume []int, phase []bool) (best []bool, ok bool) {
	holds := func(a []bool, l int) bool {
		if l > 0 {
			return a[l]
		}
		return !a[-l]
	}
	// before reports whether prefix x comes before prefix y in the order.
	before := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return x[i] == phase[i]
			}
		}
		return false
	}
	a := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			a[v] = mask>>(v-1)&1 == 1
		}
		sat := true
		for _, l := range assume {
			sat = sat && holds(a, l)
		}
		for _, c := range clauses {
			if !sat {
				break
			}
			csat := false
			for _, l := range c {
				csat = csat || holds(a, l)
			}
			sat = csat
		}
		if !sat {
			continue
		}
		prefix := append([]bool(nil), a[1:len(phase)+1]...)
		if !ok || before(prefix, best) {
			best, ok = prefix, true
		}
	}
	return best, ok
}

func randomClauses(rng *rand.Rand, n, m int) [][]int {
	clauses := make([][]int, m)
	for i := range clauses {
		c := make([]int, 1+rng.Intn(3))
		for j := range c {
			c[j] = 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				c[j] = -c[j]
			}
		}
		clauses[i] = c
	}
	return clauses
}

// TestDecideFirstFindsFirstModel: with a DecideFirst prefix, the model's
// prefix is the first one (in index order, preferring each phase) among
// all models of the clauses and the assumptions, whatever the solver did
// before: earlier solves under other assumptions, learnt clauses kept by
// RetractToReuse, saved phases and activities.
func TestDecideFirstFindsFirstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		n := 4 + rng.Intn(9)
		p := 1 + rng.Intn(n)
		phase := make([]bool, p)
		for i := range phase {
			phase[i] = rng.Intn(2) == 0
		}
		clauses := randomClauses(rng, n, 1+rng.Intn(3*n))
		var assume []int
		for k := rng.Intn(3); k > 0; k-- {
			l := 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				l = -l
			}
			assume = append(assume, l)
		}

		s := New(n)
		s.DecideFirst(phase)
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				t.Fatal(err)
			}
		}
		// History: a retracted delta and solves under other assumptions.
		cp := s.Mark()
		for _, c := range randomClauses(rng, n, rng.Intn(n)) {
			if err := s.AddClause(c...); err != nil {
				t.Fatal(err)
			}
		}
		s.SolveAssuming(1 + rng.Intn(n))
		s.RetractToReuse(cp)
		s.SolveAssuming(-(1 + rng.Intn(n)))

		st, model := s.SolveAssuming(assume...)
		want, ok := firstModel(n, clauses, assume, phase)
		if ok != (st == Satisfiable) {
			t.Fatalf("iter %d: brute force SAT=%v, solver %v", iter, ok, st)
		}
		if !ok {
			continue
		}
		checkModel(t, clauses, model)
		for i, b := range want {
			if model[i+1] != b {
				t.Fatalf("iter %d: prefix %v, first model's prefix %v (phase %v, assume %v, clauses %v)",
					iter, model[1:p+1], want, phase, assume, clauses)
			}
		}
	}
}
