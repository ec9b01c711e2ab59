package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSolve(t *testing.T, nVars int, clauses [][]int) (Status, []bool) {
	t.Helper()
	s := New(nVars)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			t.Fatalf("AddClause(%v): %v", c, err)
		}
	}
	st, m := s.Solve()
	return st, m
}

// checkModel verifies that a model satisfies every clause.
func checkModel(t *testing.T, clauses [][]int, model []bool) {
	t.Helper()
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			v := l
			if v < 0 {
				v = -v
			}
			if (l > 0) == model[v] {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model does not satisfy clause %v", c)
		}
	}
}

func TestTrivialSAT(t *testing.T) {
	st, m := mustSolve(t, 1, [][]int{{1}})
	if st != Satisfiable || !m[1] {
		t.Fatalf("got %v model=%v, want SAT with x1=true", st, m)
	}
}

func TestTrivialUNSAT(t *testing.T) {
	st, _ := mustSolve(t, 1, [][]int{{1}, {-1}})
	if st != Unsatisfiable {
		t.Fatalf("got %v, want UNSAT", st)
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	s := New(2)
	if err := s.AddClause(); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Solve(); st != Unsatisfiable {
		t.Fatalf("empty clause must be UNSAT, got %v", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	st, _ := mustSolve(t, 2, [][]int{{1, -1}, {2}})
	if st != Satisfiable {
		t.Fatalf("got %v, want SAT", st)
	}
}

func TestNoClausesIsSAT(t *testing.T) {
	st, m := mustSolve(t, 3, nil)
	if st != Satisfiable || len(m) != 4 {
		t.Fatalf("got %v len(model)=%d", st, len(m))
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1, x1→x2, x2→x3, ..., x9→x10
	clauses := [][]int{{1}}
	for i := 1; i < 10; i++ {
		clauses = append(clauses, []int{-i, i + 1})
	}
	st, m := mustSolve(t, 10, clauses)
	if st != Satisfiable {
		t.Fatalf("got %v, want SAT", st)
	}
	for i := 1; i <= 10; i++ {
		if !m[i] {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestUnsatChain(t *testing.T) {
	clauses := [][]int{{1}}
	for i := 1; i < 10; i++ {
		clauses = append(clauses, []int{-i, i + 1})
	}
	clauses = append(clauses, []int{-10})
	st, _ := mustSolve(t, 10, clauses)
	if st != Unsatisfiable {
		t.Fatalf("got %v, want UNSAT", st)
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes is UNSAT. Use n=4 (20 vars).
	n := 4
	varOf := func(p, h int) int { return p*n + h + 1 } // p in [0,n], h in [0,n-1]
	var clauses [][]int
	for p := 0; p <= n; p++ {
		c := make([]int, n)
		for h := 0; h < n; h++ {
			c[h] = varOf(p, h)
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				clauses = append(clauses, []int{-varOf(p1, h), -varOf(p2, h)})
			}
		}
	}
	st, _ := mustSolve(t, (n+1)*n, clauses)
	if st != Unsatisfiable {
		t.Fatalf("pigeonhole got %v, want UNSAT", st)
	}
}

func TestDIMACSVector(t *testing.T) {
	st, m, err := SolveVector(3, []int{1, 2, 0, -1, 0, -2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if st != Satisfiable {
		t.Fatalf("got %v, want SAT", st)
	}
	checkModel(t, [][]int{{1, 2}, {-1}, {-2, 3}}, m)
}

func TestDIMACSVectorTrailing(t *testing.T) {
	if _, _, err := SolveVector(2, []int{1, 2}); err == nil {
		t.Fatal("want error for non-terminated vector")
	}
}

func TestBadLiteral(t *testing.T) {
	s := New(2)
	if err := s.AddClause(3); err == nil {
		t.Fatal("want ErrBadLiteral for out-of-range var")
	}
	if err := s.AddClause(1, 0); err == nil {
		t.Fatal("want error for zero literal")
	}
}

func TestStatusString(t *testing.T) {
	if Satisfiable.String() != "SAT" || Unsatisfiable.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("bad Status strings")
	}
}

// brute checks satisfiability by exhaustive enumeration (nVars <= 20).
func brute(nVars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, c := range clauses {
			csat := false
			for _, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				val := mask>>(v-1)&1 == 1
				if (l > 0) == val {
					csat = true
					break
				}
			}
			if !csat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBruteForce cross-checks the CDCL solver against
// exhaustive enumeration on many small random instances.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(8)
		m := 1 + rng.Intn(4*n)
		clauses := make([][]int, 0, m)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			for j := range c {
				v := rng.Intn(n) + 1
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses = append(clauses, c)
		}
		st, model := mustSolve(t, n, clauses)
		want := brute(n, clauses)
		if want && st != Satisfiable {
			t.Fatalf("iter %d: brute=SAT solver=%v clauses=%v", iter, st, clauses)
		}
		if !want && st != Unsatisfiable {
			t.Fatalf("iter %d: brute=UNSAT solver=%v clauses=%v", iter, st, clauses)
		}
		if st == Satisfiable {
			checkModel(t, clauses, model)
		}
	}
}

// TestQuickModelSound is a property-based test: for random satisfiable
// instances built from a planted assignment, the solver must return SAT and
// the returned model must satisfy every clause.
func TestQuickModelSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		planted := make([]bool, n+1)
		for i := 1; i <= n; i++ {
			planted[i] = rng.Intn(2) == 1
		}
		var clauses [][]int
		for i := 0; i < 3*n; i++ {
			k := 1 + rng.Intn(4)
			c := make([]int, 0, k)
			for j := 0; j < k; j++ {
				v := rng.Intn(n) + 1
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, v)
			}
			// Force the clause to be satisfied by the planted assignment.
			v := rng.Intn(n) + 1
			if planted[v] {
				c = append(c, v)
			} else {
				c = append(c, -v)
			}
			clauses = append(clauses, c)
		}
		s := New(n)
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				return false
			}
		}
		st, model := s.Solve()
		if st != Satisfiable {
			return false
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				if (l > 0) == model[v] {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d)=%d want %d", i+1, got, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	for _, d := range []int{1, -1, 5, -5, 1000, -1000} {
		l := toLit(d)
		if l.dimacs() != d {
			t.Fatalf("roundtrip %d -> %v -> %d", d, l, l.dimacs())
		}
		if l.neg().dimacs() != -d {
			t.Fatalf("neg(%d) = %d", d, l.neg().dimacs())
		}
	}
}

func TestSolverReuseAfterSAT(t *testing.T) {
	s := New(3)
	if err := s.AddClause(1, 2); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Solve()
	if st != Satisfiable {
		t.Fatalf("first solve: %v", st)
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	var vec []int
	for i := 0; i < int(4.0*float64(n)); i++ {
		for j := 0; j < 3; j++ {
			v := rng.Intn(n) + 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			vec = append(vec, v)
		}
		vec = append(vec, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveVector(n, vec); err != nil {
			b.Fatal(err)
		}
	}
}
