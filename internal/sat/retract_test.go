package sat

import (
	"testing"
)

// TestMarkAllocatesNothing: a checkpoint is only the database boundary, so
// taking one costs no allocation however large the solver is.
func TestMarkAllocatesNothing(t *testing.T) {
	s := New(20)
	php(t, s, 5, 4)
	_, _ = s.Solve()
	if n := testing.AllocsPerRun(100, func() { _ = s.Mark() }); n != 0 {
		t.Fatalf("Mark allocated %v times per call, want 0", n)
	}
}

// TestStampWrap: the literal stamps addClause and retract share stay sound
// when their generation counter wraps. Before the wrap cleared them, the
// stamps still at zero read as current, so the first clause after the
// wrap looked like a tautology and was dropped, and a retract skipped the
// watch lists it should filter.
func TestStampWrap(t *testing.T) {
	s := New(3)
	cp := s.Mark()
	s.stampGen = ^uint32(0)
	if err := s.AddClause(1, 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.SolveAssuming(-1, -2); st != Unsatisfiable {
		t.Fatalf("clause (1 ∨ 2) added across the stamp wrap: ¬1 ∧ ¬2 is %v, want UNSAT", st)
	}
	s.stampGen = ^uint32(0)
	s.RetractTo(cp)
	checkWatches(t, s)
}

// checkWatches asserts the two-watched-literal invariant the structural
// retract relies on: every clause in the database has exactly one watcher
// in the list of each of its first two literals' negations and none
// elsewhere, and no watcher names a clause outside the database.
func checkWatches(t *testing.T, s *Solver) {
	t.Helper()
	seen := make([]int, len(s.db))
	for l, ws := range s.watches {
		for _, w := range ws {
			if int(w.c) < 0 || int(w.c) >= len(s.db) {
				t.Fatalf("watch list %d names clause %d, database holds %d", l, w.c, len(s.db))
			}
			c := s.db[w.c].lits
			if lit(l) != c[0].neg() && lit(l) != c[1].neg() {
				t.Fatalf("clause %d %v watched in list %d", w.c, c, l)
			}
			seen[w.c]++
		}
	}
	for i, n := range seen {
		if n != 2 {
			t.Fatalf("clause %d %v has %d watchers, want 2", i, s.db[i].lits, n)
		}
	}
}

// FuzzRetract drives a solver through random clauses over at most 24
// variables, nested Marks, solves under assumptions, variable growth and
// LIFO RetractTo/RetractToReuse. After every retract the watch lists hold
// exactly the retained clauses and Solve agrees with a new solver over
// them; at the end, retracting to a checkpoint taken before any clause
// and adding the retained clauses again costs the same solver work, and
// gives the same model, as a new solver given those clauses.
func FuzzRetract(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 3, 2, 0, 0x85, 9, 3, 2, 1, 4, 5, 0, 5, 1})
	f.Add([]byte{11, 2, 0, 2, 0x81, 0x82, 1, 2, 3, 3, 4, 2, 0, 1, 0x84, 0x85, 3, 3, 1, 2, 3, 5, 2, 5, 1})
	f.Add([]byte{23, 0, 2, 1, 2, 0, 2, 0x81, 0x82, 4, 2, 2, 0, 3, 0x90, 5, 7, 3, 2, 0x83, 4, 5, 0, 3, 3, 1, 0x81, 2, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n0 := 1 + int(data[0])%24
		phase := make([]bool, int(data[1])%(n0+1))
		for i := range phase {
			phase[i] = (data[1]>>uint(i%8))&1 == 1
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		data = data[2:]

		s := New(n0)
		s.DecideFirst(phase)
		empty := s.Mark()
		type frame struct {
			cp       Checkpoint
			nClauses int
			nVars    int
		}
		stack := []frame{{empty, 0, n0}}
		var clauses [][]int
		nVars := n0
		for len(data) > 0 {
			switch next() % 6 {
			case 0, 1:
				c := make([]int, 1+next()%4)
				for i := range c {
					b := next()
					c[i] = 1 + (b&0x7f)%nVars
					if b&0x80 != 0 {
						c[i] = -c[i]
					}
				}
				if err := s.AddClause(c...); err != nil {
					t.Fatal(err)
				}
				clauses = append(clauses, c)
			case 2:
				stack = append(stack, frame{s.Mark(), len(clauses), nVars})
			case 3:
				assume := make([]int, next()%4)
				for i := range assume {
					b := next()
					assume[i] = 1 + (b&0x7f)%nVars
					if b&0x80 != 0 {
						assume[i] = -assume[i]
					}
				}
				_, _ = s.SolveAssuming(assume...)
			case 4:
				nVars = min(24, nVars+1+next()%3)
				s.EnsureVars(nVars)
			case 5:
				b := next()
				k := len(stack) - 1 - b%len(stack)
				fr := stack[k]
				stack = stack[:k+1]
				if b&0x80 != 0 {
					s.RetractToReuse(fr.cp)
				} else {
					s.RetractTo(fr.cp)
				}
				clauses, nVars = clauses[:fr.nClauses], fr.nVars
				if s.NumVars() != nVars {
					t.Fatalf("retract left %d variables, want %d", s.NumVars(), nVars)
				}
				checkWatches(t, s)
				fresh := New(nVars)
				for _, c := range clauses {
					_ = fresh.AddClause(c...)
				}
				want, _ := fresh.Solve()
				if got, _ := s.Solve(); got != want {
					t.Fatalf("after retract: status %v, a new solver over the %d retained clauses says %v", got, len(clauses), want)
				}
			}
		}

		kept := clauses
		s.RetractTo(empty)
		checkWatches(t, s)
		fresh := New(n0)
		fresh.DecideFirst(phase)
		d0, p0, c0 := s.Stats()
		s.EnsureVars(nVars)
		fresh.EnsureVars(nVars)
		for _, c := range kept {
			_ = s.AddClause(c...)
			_ = fresh.AddClause(c...)
		}
		got, gotModel := s.Solve()
		d1, p1, c1 := s.Stats()
		want, wantModel := fresh.Solve()
		d, p, c := fresh.Stats()
		if got != want || d1-d0 != d || p1-p0 != p || c1-c0 != c {
			t.Fatalf("re-added %d clauses: %v with %d/%d/%d decisions/propagations/conflicts, a new solver %v with %d/%d/%d",
				len(kept), got, d1-d0, p1-p0, c1-c0, want, d, p, c)
		}
		for v := range gotModel {
			if gotModel[v] != wantModel[v] {
				t.Fatalf("re-added %d clauses: model %v, a new solver's %v", len(kept), gotModel, wantModel)
			}
		}
	})
}
