// Package sat implements a complete Boolean satisfiability solver in the
// spirit of PicoSAT, which the Monocle paper uses as its backend solver.
//
// The solver consumes clauses in the DIMACS convention: a clause is a list
// of non-zero integers, where a positive integer v denotes the variable v
// and a negative integer -v denotes its negation. Following the paper's
// implementation note (§7), the whole CNF formula can also be supplied as a
// single one-dimensional vector of integers with 0 acting as the clause
// terminator; this avoids allocating one small slice per clause on the hot
// path of probe generation.
//
// The algorithm is conflict-driven clause learning (CDCL) with two-literal
// watching, first-UIP conflict analysis, non-chronological backjumping, an
// exponential VSIDS-style activity heuristic, and Luby restarts. Probe
// instances are small (a few hundred variables), so the solver is tuned for
// low constant overhead rather than industrial-scale inputs.
package sat

import (
	"errors"
	"fmt"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means there is no answer (SolveVector's input was malformed).
	Unknown Status = iota
	// Satisfiable means a model was found.
	Satisfiable
	// Unsatisfiable means no assignment satisfies the formula.
	Unsatisfiable
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Satisfiable:
		return "SAT"
	case Unsatisfiable:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrBadLiteral is returned when a clause contains a literal whose variable
// index is zero or out of range.
var ErrBadLiteral = errors.New("sat: literal out of range")

// lit is an internal literal encoding: variable v (1-based) with sign s is
// encoded as 2*v + s where s=1 for negated. lit 0/1 are unused.
type lit uint32

func toLit(dimacs int) lit {
	if dimacs > 0 {
		return lit(2 * dimacs)
	}
	return lit(-2*dimacs + 1)
}

func (l lit) dimacs() int {
	v := int(l >> 1)
	if l&1 == 1 {
		return -v
	}
	return v
}

func (l lit) neg() lit   { return l ^ 1 }
func (l lit) varID() int { return int(l >> 1) }
func (l lit) sign() bool { return l&1 == 1 }

// value of an assignment slot.
type tribool int8

const (
	unassigned tribool = iota
	vTrue
	vFalse
)

type clause struct {
	lits   []lit
	learnt bool
	// scope is the checkpoint depth the clause belongs to: problem clauses
	// get the depth they were added at, learnt clauses the maximum depth of
	// any clause or top-level fact used in their derivation. A learnt
	// clause with scope ≤ d is a logical consequence of the clauses at
	// depth ≤ d alone, so it may survive a retract to depth d.
	scope int32
	// act is the VSIDS-style clause activity driving the ReduceDB pass:
	// learnt clauses are bumped whenever they participate in a conflict.
	act float64
}

// cref indexes a clause in the solver's database. Watchers and antecedent
// references hold indices rather than pointers so they are pointer-free:
// watch lists copy with memmove and never trip GC write barriers, and a
// retract drops a clause's watchers by comparing indices.
type cref = int32

// crefNil marks "no clause" (decision/assumption antecedents, no conflict).
const crefNil cref = -1

type watcher struct {
	c       cref
	blocker lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New. A Solver may be reused for multiple Solve calls by
// adding more clauses between calls; clauses added after a Mark can be
// retracted again with RetractTo.
type Solver struct {
	nVars   int
	db      []clause    // problem and learnt clauses, in insertion order
	arena   []lit       // pooled literal storage for problem clauses
	watches [][]watcher // indexed by lit

	assign  []tribool // indexed by var
	level   []int     // decision level per var
	reason  []cref    // antecedent clause per var (crefNil for decisions)
	trail   []lit
	trailLi []int // trail limits per decision level
	qhead   int

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // phase saving

	// Static decision prefix (see DecideFirst): variables 1..len(phase)-1
	// are decided before any other, in index order, each to its fixed
	// phase. cursor is the lowest of them that may be unassigned;
	// backtracking moves it back.
	phase  []bool
	cursor int

	// Checkpoint-scope bookkeeping (see Mark/RetractTo/RetractToReuse).
	depth     int32   // scope tag given to newly added clauses and facts
	factScope []int32 // per-var scope tag of its top-level fact, if any
	claInc    float64 // clause activity increment (ReduceDB heuristic)

	seenScratch []bool   // conflict-analysis scratch, one slot per var
	keepScratch []clause // RetractToReuse survivor scratch
	litScratch  []lit    // addClause normalization scratch
	litStamp    []uint32 // per-lit stamp for addClause dedup and retract's filtered watch lists
	stampGen    uint32   // current litStamp generation

	ok        bool // false once a top-level conflict is found
	conflicts int64
	decisions int64
	propag    int64

	// LearntCap bounds the learnt clauses RetractToReuse carries across a
	// retract (the ReduceDB pass keeps the most active ones). Zero uses
	// defaultLearntCap.
	LearntCap int
}

// New returns a solver prepared for nVars variables (1..nVars).
func New(nVars int) *Solver {
	s := &Solver{
		nVars:     nVars,
		watches:   make([][]watcher, 2*nVars+2),
		assign:    make([]tribool, nVars+1),
		level:     make([]int, nVars+1),
		reason:    make([]cref, nVars+1),
		activity:  make([]float64, nVars+1),
		polarity:  make([]bool, nVars+1),
		factScope: make([]int32, nVars+1),
		litStamp:  make([]uint32, 2*nVars+2),
		varInc:    1.0,
		claInc:    1.0,
		ok:        true,
	}
	for i := range s.reason {
		s.reason[i] = crefNil
	}
	s.order = newVarHeap(s.activity)
	for v := 1; v <= nVars; v++ {
		s.order.push(v)
	}
	return s
}

// NumVars returns the number of variables the solver was created with.
func (s *Solver) NumVars() int { return s.nVars }

// Stats reports (decisions, propagations, conflicts) accumulated so far.
func (s *Solver) Stats() (decisions, propagations, conflicts int64) {
	return s.decisions, s.propag, s.conflicts
}

// AddClause adds one clause given as DIMACS literals. It returns
// ErrBadLiteral for out-of-range variables. Adding an empty clause (or a
// clause that simplifies to empty) makes the formula trivially UNSAT.
func (s *Solver) AddClause(dimacs ...int) error {
	return s.addClause(dimacs)
}

func (s *Solver) addClause(dimacs []int) error {
	if !s.ok {
		return nil // already UNSAT; further clauses are irrelevant
	}
	// Clauses may arrive between Solve calls; the two-watched-literal
	// invariant only holds for clauses added at decision level 0.
	s.cancelUntil(0)
	// Normalize: drop duplicate literals and satisfied-at-level-0 clauses.
	// Dedup runs through a per-literal stamp array (one generation per
	// clause) instead of a map: this is the hot path of the per-rule
	// Distinguish delta in probe generation.
	gen := s.nextStamp()
	lits := s.litScratch[:0]
	for _, d := range dimacs {
		if d == 0 {
			return fmt.Errorf("%w: 0 inside clause", ErrBadLiteral)
		}
		v := d
		if v < 0 {
			v = -v
		}
		if v > s.nVars {
			return fmt.Errorf("%w: var %d > %d", ErrBadLiteral, v, s.nVars)
		}
		l := toLit(d)
		if s.litStamp[l.neg()] == gen {
			s.litScratch = lits[:0]
			return nil // clause contains x ∨ ¬x: tautology
		}
		if s.litStamp[l] == gen {
			continue
		}
		s.litStamp[l] = gen
		switch s.valueLit(l) {
		case vTrue:
			if s.level[l.varID()] == 0 {
				s.litScratch = lits[:0]
				return nil // satisfied at top level
			}
		case vFalse:
			if s.level[l.varID()] == 0 {
				continue // falsified at top level: drop literal
			}
		}
		lits = append(lits, l)
	}
	s.litScratch = lits[:0]
	switch len(lits) {
	case 0:
		s.ok = false
		return nil
	case 1:
		if !s.enqueue(lits[0], crefNil) {
			s.ok = false
		} else if conf := s.propagate(); conf != crefNil {
			s.ok = false
		}
		return nil
	}
	s.db = append(s.db, clause{lits: s.store(lits), scope: s.depth})
	s.watch(cref(len(s.db) - 1))
	return nil
}

// store copies a problem clause's literals into the arena and returns
// them. The arena only pools storage, so adding a clause does not
// allocate: a retract truncates it to the checkpoint's length, and a
// clause stored before append moved the arena to a larger array keeps
// the array it was stored in.
func (s *Solver) store(cl []lit) []lit {
	start := len(s.arena)
	s.arena = append(s.arena, cl...)
	return s.arena[start:len(s.arena):len(s.arena)]
}

// nextStamp starts a new litStamp generation. When the counter wraps it
// clears the stamps first, so neither a stamp left from 2^32 generations
// ago nor a zeroed one reads as current.
func (s *Solver) nextStamp() uint32 {
	s.stampGen++
	if s.stampGen == 0 {
		clear(s.litStamp)
		s.stampGen = 1
	}
	return s.stampGen
}

// AddDIMACSVector adds a whole formula given as a one-dimensional vector of
// integers where 0 terminates each clause, mirroring the representation the
// paper's Cython implementation feeds to PicoSAT.
func (s *Solver) AddDIMACSVector(vec []int) error {
	start := 0
	for i, x := range vec {
		if x == 0 {
			if err := s.addClause(vec[start:i]); err != nil {
				return err
			}
			start = i + 1
		}
	}
	if start != len(vec) {
		return fmt.Errorf("sat: DIMACS vector not 0-terminated (trailing %d literals)", len(vec)-start)
	}
	return nil
}

func (s *Solver) watch(ci cref) {
	c := &s.db[ci]
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], watcher{ci, c.lits[1]})
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], watcher{ci, c.lits[0]})
	// Lazy heap entry: variables join the decision heap when a clause
	// first watches them. Variables no clause ever watches need no
	// decision — any clause over them would either find them as a watch
	// (via migration, which also pushes) or be wholly decided by its
	// watched literals.
	s.order.pushIfAbsent(c.lits[0].varID())
	s.order.pushIfAbsent(c.lits[1].varID())
}

func (s *Solver) valueLit(l lit) tribool {
	a := s.assign[l.varID()]
	if a == unassigned {
		return unassigned
	}
	if l.sign() {
		if a == vTrue {
			return vFalse
		}
		return vTrue
	}
	return a
}

func (s *Solver) enqueue(l lit, from cref) bool {
	switch s.valueLit(l) {
	case vTrue:
		return true
	case vFalse:
		return false
	}
	v := l.varID()
	if l.sign() {
		s.assign[v] = vFalse
	} else {
		s.assign[v] = vTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	if s.level[v] == 0 {
		// Top-level fact: tag it with the current checkpoint depth (a safe
		// upper bound on the depth of the clauses that imply it), so
		// conflict analysis can scope learnt clauses that drop it.
		s.factScope[v] = s.depth
	}
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLi) }

func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propag++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := crefNil
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != crefNil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.valueLit(w.blocker) == vTrue {
				kept = append(kept, w)
				continue
			}
			c := &s.db[w.c]
			// Ensure the false literal (¬p) is at position 1.
			np := p.neg()
			if c.lits[0] == np {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == vTrue {
				kept = append(kept, watcher{w.c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], watcher{w.c, first})
					s.order.pushIfAbsent(c.lits[1].varID())
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.c, first})
			if !s.enqueue(first, w.c) {
				conflict = w.c
				s.qhead = len(s.trail)
			}
		}
		s.watches[p] = kept
		if conflict != crefNil {
			return conflict
		}
	}
	return crefNil
}

// analyze derives the first-UIP learnt clause for the conflict. Along the
// way it computes the clause's checkpoint scope: the maximum scope of every
// clause resolved on and of every top-level fact whose literal is dropped
// from the resolvent — the smallest depth whose clause set provably implies
// the learnt clause, which RetractToReuse uses for retention.
func (s *Solver) analyze(confl cref) (learnt []lit, backLevel int, scope int32) {
	if len(s.seenScratch) < s.nVars+1 {
		s.seenScratch = make([]bool, s.nVars+1)
	}
	seen := s.seenScratch
	counter := 0
	var p lit
	learnt = append(learnt, 0) // slot for the asserting literal
	idx := len(s.trail) - 1
	first := true

	for {
		c := &s.db[confl]
		if c.scope > scope {
			scope = c.scope
		}
		if c.learnt {
			s.bumpClause(confl)
		}
		for _, q := range c.lits {
			if first || q != p {
				v := q.varID()
				if seen[v] {
					continue
				}
				if s.level[v] > 0 {
					seen[v] = true
					s.bumpVar(v)
					if s.level[v] >= s.decisionLevel() {
						counter++
					} else {
						learnt = append(learnt, q)
						if s.level[v] > backLevel {
							backLevel = s.level[v]
						}
					}
				} else if s.factScope[v] > scope {
					// The literal is false at level 0 and dropped from the
					// resolvent, making the learnt clause depend on the
					// fact's derivation.
					scope = s.factScope[v]
				}
			}
		}
		// Find next literal on trail to resolve on.
		for !seen[s.trail[idx].varID()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		seen[p.varID()] = false
		first = false
		if counter == 0 {
			break
		}
		confl = s.reason[p.varID()]
	}
	learnt[0] = p.neg()
	// Clear the remaining marks (lower-level literals kept in the learnt).
	for _, q := range learnt[1:] {
		seen[q.varID()] = false
	}
	return learnt, backLevel, scope
}

// bumpClause increases a learnt clause's activity, rescaling all clause
// activities when they approach overflow.
func (s *Solver) bumpClause(ci cref) {
	c := &s.db[ci]
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.db {
			if s.db[i].learnt {
				s.db[i].act *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLi[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].varID()
		s.polarity[v] = s.assign[v] == vTrue
		s.assign[v] = unassigned
		s.reason[v] = crefNil
		s.order.pushIfAbsent(v)
		if v < s.cursor {
			s.cursor = v
		}
	}
	s.trail = s.trail[:bound]
	s.trailLi = s.trailLi[:lvl]
	s.qhead = len(s.trail)
}

// DecideFirst fixes the start of the decision order: variables
// 1..len(phase) are decided before any other, in index order, variable
// i+1 to phase[i]; the remaining variables keep the activity heuristic and
// phase saving (MiniSat's user-set decision variables and polarity). A
// satisfying model then assigns those variables the first values, in that
// order and preferring each fixed phase, that any model of the clauses
// and the assumptions has: every prefix variable is either decided to its
// phase or forced by the clauses and the prefix before it. So on those
// variables the model depends only on the formula and the assumptions,
// not on learnt clauses, restarts or what was solved before. The setting
// survives RetractTo and RetractToReuse.
func (s *Solver) DecideFirst(phase []bool) {
	s.phase = make([]bool, len(phase)+1)
	copy(s.phase[1:], phase)
	s.cursor = 1
}

// pickBranch returns the next decision literal, or false when every
// variable is assigned: the next unassigned prefix variable on its fixed
// phase, else the most active heap variable on its saved phase.
func (s *Solver) pickBranch() (lit, bool) {
	for ; s.cursor < len(s.phase) && s.cursor <= s.nVars; s.cursor++ {
		if v := s.cursor; s.assign[v] == unassigned {
			l := toLit(v)
			if !s.phase[v] {
				l = l.neg()
			}
			return l, true
		}
	}
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.assign[v] == unassigned {
			l := toLit(v)
			if !s.polarity[v] {
				l = l.neg()
			}
			return l, true
		}
	}
	return 0, false
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	// Find k such that i = 2^k - 1 → return 2^(k-1); otherwise recurse.
	for k := int64(1); ; k++ {
		p := int64(1)<<k - 1
		if i == p {
			return int64(1) << (k - 1)
		}
		if i < p {
			return luby(i - (int64(1)<<(k-1) - 1))
		}
	}
}

// Solve runs the CDCL search. It returns Satisfiable with a model, or
// Unsatisfiable.
// The model maps variable v (1..NumVars) at index v; index 0 is unused.
func (s *Solver) Solve() (Status, []bool) {
	return s.SolveAssuming()
}

// search is the CDCL main loop shared by Solve and SolveAssuming. The
// assumption literals are served as the first decisions, one per level;
// an assumption found false under propagation means the formula is UNSAT
// under the assumptions (but not necessarily in itself).
func (s *Solver) search(assume []lit) (Status, []bool) {
	if confl := s.propagate(); confl != crefNil {
		s.ok = false
		return Unsatisfiable, nil
	}
	restart := int64(1)
	conflBudget := 32 * luby(restart)
	conflCount := int64(0)

	for {
		confl := s.propagate()
		if confl != crefNil {
			s.conflicts++
			conflCount++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsatisfiable, nil
			}
			learnt, back, scope := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], crefNil)
				if back == 0 {
					// enqueue tagged the fact with the current depth; the
					// analysis knows the exact (possibly lower) scope.
					s.factScope[learnt[0].varID()] = scope
				}
			} else {
				s.db = append(s.db, clause{lits: learnt, learnt: true, scope: scope})
				ci := cref(len(s.db) - 1)
				s.watch(ci)
				s.enqueue(learnt[0], ci)
			}
			s.varInc *= 1.0 / 0.95
			s.claInc *= 1.0 / 0.999
			continue
		}
		if conflCount >= conflBudget {
			// Restart. Assumptions are re-served from level 0.
			conflCount = 0
			restart++
			conflBudget = 32 * luby(restart)
			s.cancelUntil(0)
			continue
		}
		if s.decisionLevel() < len(assume) {
			// Serve the next assumption as a decision.
			p := assume[s.decisionLevel()]
			switch s.valueLit(p) {
			case vTrue:
				// Already implied: open a dummy level so the level↔
				// assumption indexing stays aligned.
				s.trailLi = append(s.trailLi, len(s.trail))
			case vFalse:
				return Unsatisfiable, nil // conflicts with the assumptions
			default:
				s.decisions++
				s.trailLi = append(s.trailLi, len(s.trail))
				s.enqueue(p, crefNil)
			}
			continue
		}
		l, ok := s.pickBranch()
		if !ok {
			// All variables assigned: SAT.
			model := make([]bool, s.nVars+1)
			for i := 1; i <= s.nVars; i++ {
				model[i] = s.assign[i] == vTrue
			}
			return Satisfiable, model
		}
		s.decisions++
		s.trailLi = append(s.trailLi, len(s.trail))
		s.enqueue(l, crefNil)
	}
}

// SolveVector is a convenience wrapper: it builds a fresh solver for nVars
// variables, loads the 0-terminated DIMACS vector and solves it.
func SolveVector(nVars int, vec []int) (Status, []bool, error) {
	s := New(nVars)
	if err := s.AddDIMACSVector(vec); err != nil {
		return Unknown, nil, err
	}
	st, m := s.Solve()
	return st, m, nil
}
