package sat

import (
	"fmt"
	"sort"
)

// This file implements the incremental interface used by the probe
// generator's table sessions: solving under assumptions (à la MiniSat),
// growing the variable space on demand, and retracting clauses added after
// a checkpoint so one solver instance can serve every rule of a flow table.

// Checkpoint is a clause database boundary recorded by Mark. Checkpoints
// only nest LIFO: retracting to an older checkpoint invalidates newer
// ones. A Checkpoint may be retracted to any number of times.
type Checkpoint struct {
	nVars    int
	dbLen    int
	arenaLen int
	trailLen int
	depth    int32
	ok       bool
}

// Mark records the current clause database boundary. The solver is
// backtracked to decision level 0 first, so the recorded trail prefix
// contains exactly the top-level facts implied by the clauses added so far.
func (s *Solver) Mark() Checkpoint {
	s.cancelUntil(0)
	cp := Checkpoint{
		nVars:    s.nVars,
		dbLen:    len(s.db),
		arenaLen: len(s.arena),
		trailLen: len(s.trail),
		depth:    s.depth,
		ok:       s.ok,
	}
	// Everything added from here on belongs to a deeper scope, so learnt
	// clauses derived purely from the checkpointed state are recognizable
	// by their scope tag (see RetractToReuse).
	s.depth++
	return cp
}

// RetractTo removes every clause added after the checkpoint (the per-rule
// delta plus any learnt clauses, which may depend on it), unassigns
// top-level facts derived since, shrinks the variable space back to the
// checkpoint's, and resets the branching heuristics.
//
// The retained clauses keep the literal order and watchers search left
// them with, so a later Solve's statistics depend on the solve history;
// its status does not. Retracting to a checkpoint taken before any clause
// was added gives back exactly the state New returned (DecideFirst
// survives), which is how a caller gets work counts that depend on the
// clauses alone.
func (s *Solver) RetractTo(cp Checkpoint) {
	s.retract(cp)
	s.resetHeuristics()
}

// retract is the structural removal shared by RetractTo and
// RetractToReuse: each clause past the checkpoint leaves the watch lists
// of its first two literals (the two-watched-literal invariant puts its
// watchers there and nowhere else), then the clause database, arena,
// trail and variable space shrink to the checkpoint's. Branching
// heuristics are the caller's business.
func (s *Solver) retract(cp Checkpoint) {
	s.cancelUntil(0)
	// One pass per watch list, however many dropped clauses it holds:
	// the literal stamps mark the lists already filtered.
	gen := s.nextStamp()
	for i := cp.dbLen; i < len(s.db); i++ {
		for _, l := range s.db[i].lits[:2] {
			w := l.neg()
			if int(w) >= 2*cp.nVars+2 || s.litStamp[w] == gen {
				continue // cut by shrinkVars, or filtered already
			}
			s.litStamp[w] = gen
			kept := s.watches[w][:0]
			for _, x := range s.watches[w] {
				if int(x.c) < cp.dbLen {
					kept = append(kept, x)
				}
			}
			s.watches[w] = kept
		}
	}
	// Zero the dropped entries so they stop holding learnt literals and
	// arena arrays that append has since replaced.
	clear(s.db[cp.dbLen:])
	s.db = s.db[:cp.dbLen]
	s.arena = s.arena[:cp.arenaLen]

	// Unassign top-level facts derived after the checkpoint. Facts on the
	// retained prefix were enqueued before Mark, so their reason clauses
	// are all retained too.
	for i := len(s.trail) - 1; i >= cp.trailLen; i-- {
		v := s.trail[i].varID()
		s.assign[v] = unassigned
		s.reason[v] = crefNil
		s.level[v] = 0
	}
	s.trail = s.trail[:cp.trailLen]
	s.qhead = cp.trailLen
	s.cursor = 1
	s.ok = cp.ok
	s.depth = cp.depth + 1

	s.shrinkVars(cp.nVars)
}

// defaultLearntCap bounds the learnt clauses RetractToReuse carries over
// when the solver's LearntCap field is zero.
const defaultLearntCap = 512

// RetractToReuse removes the clauses added after the checkpoint like
// RetractTo, but keeps the work worth keeping across solves that share the
// checkpointed prefix:
//
//   - learnt clauses whose scope tag proves them to be consequences of the
//     retained clause database alone survive (re-attached after the
//     retract, bounded by the ReduceDB pass);
//   - variable activities, the activity increment, and saved phases carry
//     over, so branching stays warm where the instances agree.
//
// The post-state is a function of the retained database AND the solve
// history since Mark, so callers needing reproducible work counts must
// bracket histories identically, or read only DecideFirst variables from
// the model, which do not depend on the history (the probe generator's
// header bits).
func (s *Solver) RetractToReuse(cp Checkpoint) {
	s.cancelUntil(0)

	// Collect survivors before the retract truncates the database. Learnt
	// literal storage is owned by the clause (never the arena), so the
	// slices stay valid across the retract.
	keep := s.keepScratch[:0]
	for i := cp.dbLen; i < len(s.db); i++ {
		c := &s.db[i]
		if c.learnt && c.scope <= cp.depth {
			keep = append(keep, *c)
		}
	}
	keep = s.reduceDB(keep)
	s.keepScratch = keep[:0] // recycle the backing array next time

	s.retract(cp)

	// Branching state: activities, varInc, and saved phases deliberately
	// survive; only the decision heap is rebuilt over the surviving
	// variable space.
	s.order.grow(s.activity)
	s.order.rebuild(s.nVars)

	for i := range keep {
		s.attachKept(keep[i])
	}
	if s.ok {
		if s.propagate() != crefNil {
			s.ok = false
		}
	}
}

// reduceDB is the activity-based learnt GC: when the survivor set exceeds
// the cap, only the most active clauses are kept (ties resolved toward the
// earlier derivation, so the pass is deterministic).
func (s *Solver) reduceDB(keep []clause) []clause {
	limit := s.LearntCap
	if limit <= 0 {
		limit = defaultLearntCap
	}
	if len(keep) <= limit {
		return keep
	}
	idx := make([]int, len(keep))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if keep[idx[a]].act != keep[idx[b]].act {
			return keep[idx[a]].act > keep[idx[b]].act
		}
		return idx[a] < idx[b]
	})
	idx = idx[:limit]
	sort.Ints(idx) // re-attach in derivation order
	out := make([]clause, limit)
	for i, j := range idx {
		out[i] = keep[j]
	}
	return out
}

// attachKept re-attaches one surviving learnt clause after a retract, in
// the style of AddBlock: clauses satisfied at the top level are
// dropped, unit clauses propagate, and the rest get two watchable literals.
func (s *Solver) attachKept(c clause) {
	if !s.ok {
		return
	}
	cl := c.lits
	i0, i1 := -1, -1
	for i, l := range cl {
		switch s.valueLit(l) {
		case vTrue:
			return // permanently satisfied under the retained facts
		case unassigned:
			if i0 < 0 {
				i0 = i
			} else if i1 < 0 {
				i1 = i
			}
		}
	}
	if i0 < 0 {
		s.ok = false // retained database is UNSAT and the learnt proves it
		return
	}
	if i1 < 0 {
		if !s.enqueue(cl[i0], crefNil) {
			s.ok = false
			return
		}
		// The fact is implied at the clause's own scope, not the current
		// (deeper) one enqueue assumed.
		s.factScope[cl[i0].varID()] = c.scope
		return
	}
	// i1 > i0 >= 0, so the two swaps cannot interfere.
	cl[0], cl[i0] = cl[i0], cl[0]
	cl[1], cl[i1] = cl[i1], cl[1]
	s.db = append(s.db, clause{lits: cl, learnt: true, scope: c.scope, act: c.act})
	s.watch(cref(len(s.db) - 1))
}

// NumLearnts reports how many learnt clauses the database currently holds
// (diagnostics and tests for the retention/ReduceDB machinery).
func (s *Solver) NumLearnts() int {
	n := 0
	for i := range s.db {
		if s.db[i].learnt {
			n++
		}
	}
	return n
}

// growZeroed extends s to length n, zeroing the new tail. It reuses spare
// capacity left behind by a previous shrink: grow/shrink cycles are the
// steady state of a probe session, and a temporary slice allocation per
// cycle per array would dominate it.
func growZeroed[T any](s []T, n int) []T {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// EnsureVars grows the variable space to at least n variables. Existing
// clauses and assignments are unaffected; new variables start unassigned
// with zero activity.
func (s *Solver) EnsureVars(n int) {
	if n <= s.nVars {
		return
	}
	s.assign = growZeroed(s.assign, n+1)
	s.level = growZeroed(s.level, n+1)
	s.activity = growZeroed(s.activity, n+1)
	s.polarity = growZeroed(s.polarity, n+1)
	s.factScope = growZeroed(s.factScope, n+1)
	s.litStamp = growZeroed(s.litStamp, 2*n+2)
	oldReason := len(s.reason)
	s.reason = growZeroed(s.reason, n+1)
	for v := oldReason; v <= n; v++ {
		s.reason[v] = crefNil
	}
	// Re-extend the watch-list table, reusing backing arrays retained
	// across a previous shrink (grow/shrink cycles are the steady state
	// of a probe session; reallocating every list would dominate it).
	for len(s.watches) < 2*n+2 {
		if len(s.watches) < cap(s.watches) {
			s.watches = s.watches[:len(s.watches)+1]
			s.watches[len(s.watches)-1] = s.watches[len(s.watches)-1][:0]
		} else {
			s.watches = append(s.watches, nil)
		}
	}
	// New variables are not entered into the decision heap: a variable
	// only needs branching once a clause watches it (see lazyPush); an
	// unconstrained variable stays unassigned, which reads as false in
	// the model — exactly what a polarity-false decision would yield.
	s.order.grow(s.activity)
	s.nVars = n
}

// shrinkVars truncates the variable space back to n variables. Only valid
// when every clause mentioning a removed variable has been deleted (true
// for RetractTo: clauses added before a checkpoint cannot reference
// variables allocated after it).
func (s *Solver) shrinkVars(n int) {
	if n >= s.nVars {
		return
	}
	s.assign = s.assign[:n+1]
	s.level = s.level[:n+1]
	s.reason = s.reason[:n+1]
	s.activity = s.activity[:n+1]
	s.polarity = s.polarity[:n+1]
	s.factScope = s.factScope[:n+1]
	s.litStamp = s.litStamp[:2*n+2]
	s.watches = s.watches[:2*n+2]
	s.nVars = n
}

// resetHeuristics restores the deterministic initial branching state: zero
// activities, default phases, unit activity increments (both the variable
// and the clause one — leaving either drifting would let a long-running
// session saturate bump values), and a freshly ordered decision heap.
func (s *Solver) resetHeuristics() {
	for v := 1; v <= s.nVars; v++ {
		s.activity[v] = 0
		s.polarity[v] = false
	}
	s.varInc = 1.0
	s.claInc = 1.0
	s.order.grow(s.activity) // rebind after possible slice reallocation
	s.order.reset(s.nVars)
}

// SolveAssuming runs the CDCL search under the given assumption literals
// (DIMACS convention). Assumptions act as forced first decisions: the
// result is the satisfiability of the clause database conjoined with the
// assumptions, without adding them as clauses. The solver backtracks to
// decision level 0 on entry and exit, so it can be reused — with the same,
// different, or no assumptions — and clauses may be added between calls.
//
// Unsatisfiable is returned either when the clause database itself is
// UNSAT (a later Solve will also report UNSAT) or when the assumptions
// conflict with it (retrying without them may still succeed). Clauses
// learnt during the search are logical consequences of the clause database
// alone and are kept across calls.
func (s *Solver) SolveAssuming(assumptions ...int) (Status, []bool) {
	if !s.ok {
		return Unsatisfiable, nil
	}
	assume := make([]lit, len(assumptions))
	for i, d := range assumptions {
		v := d
		if v < 0 {
			v = -v
		}
		if v == 0 || v > s.nVars {
			panic(fmt.Sprintf("sat: assumption literal %d out of range (1..%d)", d, s.nVars))
		}
		assume[i] = toLit(d)
	}
	s.cancelUntil(0)
	st, model := s.search(assume)
	s.cancelUntil(0)
	return st, model
}
