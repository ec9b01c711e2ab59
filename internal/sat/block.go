package sat

import "fmt"

// Block is an immutable, pre-parsed clause block: the DIMACS integers are
// validated and converted to internal literals once, at compile time, so
// the block can be attached to a solver any number of times (AddBlock)
// with no per-clause parsing, deduplication, or allocation. The probe
// generator compiles one block per flow-table rule definition and attaches
// only the blocks in the probed rule's scope to each solve.
//
// Compiled clauses must be well-formed: no duplicate literals and no
// tautologies (x ∨ ¬x). Tseitin-encoder output satisfies this.
type Block struct {
	lits   []lit
	lens   []int32
	maxVar int
}

// CompileBlock parses a 0-terminated DIMACS vector into a Block.
func CompileBlock(vec []int) (Block, error) {
	var b Block
	start := 0
	for i, x := range vec {
		if x == 0 {
			n := i - start
			if n == 0 {
				return Block{}, fmt.Errorf("sat: empty clause in block")
			}
			b.lens = append(b.lens, int32(n))
			start = i + 1
			continue
		}
		v := x
		if v < 0 {
			v = -v
		}
		if v > b.maxVar {
			b.maxVar = v
		}
		b.lits = append(b.lits, toLit(x))
	}
	if start != len(vec) {
		return Block{}, fmt.Errorf("sat: block vector not 0-terminated (trailing %d literals)", len(vec)-start)
	}
	return b, nil
}

// Empty reports whether the block contains no clauses.
func (b *Block) Empty() bool { return len(b.lens) == 0 }

// NumClauses returns the number of clauses in the block.
func (b *Block) NumClauses() int { return len(b.lens) }

// MaxVar returns the highest variable referenced by the block.
func (b *Block) MaxVar() int { return b.maxVar }

// AddBlock attaches every clause of the block. The solver must already
// have room for the block's variables (EnsureVars). Clause literals are
// copied into the solver's arena (see store). Clauses satisfied by
// top-level facts are skipped; clauses unit under them propagate
// immediately.
func (s *Solver) AddBlock(b *Block) {
	if !s.ok {
		return
	}
	if b.maxVar > s.nVars {
		panic(fmt.Sprintf("sat: block references var %d > %d; call EnsureVars first", b.maxVar, s.nVars))
	}
	s.cancelUntil(0)
	pos := 0
	for _, n := range b.lens {
		cl := b.lits[pos : pos+int(n)]
		pos += int(n)

		// Find two watchable (non-false) literals under the top-level
		// facts; detect satisfied and unit clauses on the way. All
		// assignments are at level 0 here.
		i0, i1 := -1, -1
		sat0 := false
		for i, l := range cl {
			switch s.valueLit(l) {
			case vTrue:
				sat0 = true
			case unassigned:
				if i0 < 0 {
					i0 = i
				} else if i1 < 0 {
					i1 = i
				}
			}
			if sat0 {
				break
			}
		}
		if sat0 {
			continue
		}
		if i0 < 0 {
			s.ok = false // every literal false at top level
			return
		}
		if i1 < 0 {
			// Unit under the top-level facts.
			if !s.enqueue(cl[i0], crefNil) || s.propagate() != crefNil {
				s.ok = false
				return
			}
			continue
		}
		lits := s.store(cl)
		// i1 > i0 >= 0, so the two swaps cannot interfere.
		lits[0], lits[i0] = lits[i0], lits[0]
		lits[1], lits[i1] = lits[i1], lits[1]
		s.db = append(s.db, clause{lits: lits, scope: s.depth})
		s.watch(cref(len(s.db) - 1))
	}
}
