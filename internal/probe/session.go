package probe

// Incremental probe generation (the engine behind whole-table sweeps).
//
// The one-shot Generate rebuilds the complete CNF encoding and a fresh SAT
// solver for every rule, so sweeping a table re-encodes every match
// formula once per probe it participates in. A Session amortizes that work
// across the rules of one table:
//
//   - the rule-independent constraints (Collect, wire safety, limited
//     domains; see assertBase) form a small persistent solver base;
//   - every rule's match formula is Tseitin-defined once, factored through
//     per-field atoms (ACL tables repeat the same (field, ternary) pairs
//     across many rules), and compiled into an immutable sat.Block — a
//     pre-parsed clause block that attaches to the solver with no parsing
//     and no per-clause allocation;
//   - per probed rule, only the blocks of the rules in its overlap scope
//     are attached (the instance stays as small as the one-shot path's),
//     the Hit constraint becomes solver *assumptions* (the probed rule's
//     match bits plus the negated definition literals of higher-priority
//     rules), and only the Distinguish if-then-else chain is freshly
//     encoded; after the solve everything above the attached blocks is
//     retracted (sat.Checkpoint).
//
// Every solve runs inside a cluster (see cluster.go): a sweep groups
// rules whose scopes attach mostly the same blocks, and a single-rule
// Generate is a cluster of one. beginCluster attaches the shared block
// prefix behind a cluster checkpoint, each member adds its own suffix
// blocks and delta and is retracted back to that checkpoint keeping the
// learnt clauses, activities, and saved phases the prefix provably owns
// (sat.RetractToReuse), and endCluster retracts to the empty solver and
// adds the base again, the state a new session's solver has. So the
// solver work a probe reports depends only on its cluster, and a
// cluster's members skip both the re-attach and the re-derivation of
// shared conflicts.
//
// Probe headers are canonical: every solver decides the header bits
// before any other variable, in bit order, each toward a fixed reference
// header (referencePhase, sat.Solver.DecideFirst), so a probe header is
// the first header in that order that the rule's constraints admit. It
// depends on the probed rule, its overlap set, the table miss and the
// configuration, and not on which session, cluster or worker solves it,
// what was solved before or which other rules share the table — the
// property GenerateAll's determinism and SessionCache's per-rule results
// rest on. Clustering can move only the solver effort spent finding a
// header, never the header; the instance size a probe reports (base + the
// scope's blocks + the Distinguish delta) is plan-independent too.
//
// A Session is bound to a snapshot of the table's rule set: it must not be
// used after the table changes (SessionCache rebuilds sessions across
// table epochs, recompiling only changed rules). It is not safe for
// concurrent use; Fork creates independent copies for parallel workers
// (see GenerateAll).

import (
	"cmp"
	"fmt"
	"slices"

	"monocle/internal/cnf"
	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/sat"
)

// tableLibrary is the immutable per-table compilation shared by a session
// and all its forks. (A libraryBuilder may still append to it; sessions
// handed out before such an append must no longer be used.)
type tableLibrary struct {
	baseVec   []int          // Collect, wire-safety and domain clauses (the solver base)
	baseVars  int            // variable count of the base encoder state
	baseNC    int            // clause count of the base
	matchLit  map[uint64]int // rule ID → definition literal of its match
	blocks    []sat.Block    // compiled definition blocks (atoms and rules)
	blockVars []int32        // fresh variables introduced per block
	// ruleBlocks lists, per rule ID, the non-empty blocks that must be
	// attached before the rule's definition literal may be used.
	ruleBlocks map[uint64][]int32
}

// atomKey identifies one (field, ternary) match atom shared across rules.
type atomKey struct {
	f           header.FieldID
	value, mask uint64
}

// libraryBuilder compiles tableLibrary content incrementally: the base
// region once, then one definition region per rule, appended in call
// order. It owns the master encoder; sessions get forks of it, so the
// builder can keep appending rule regions (delta recompiles for table
// updates) without disturbing sessions already handed out.
type libraryBuilder struct {
	g       *Generator
	enc     *cnf.Encoder
	lib     *tableLibrary
	atomIdx map[atomKey]int32
	atomLit map[atomKey]int
	removed int // rules dropped since the last full rebuild (garbage metric)
}

// newLibraryBuilder encodes the base region (see assertBase). The
// constant-true variable is pinned here so later regions can reference it.
func (g *Generator) newLibraryBuilder() *libraryBuilder {
	enc := g.newEncoder()
	g.assertBase(enc)
	_ = enc.Define(cnf.True())

	lib := &tableLibrary{
		baseVec:    append([]int(nil), enc.Vector()...),
		baseVars:   enc.NumVars(),
		matchLit:   make(map[uint64]int),
		ruleBlocks: make(map[uint64][]int32),
	}
	for _, x := range lib.baseVec {
		if x == 0 {
			lib.baseNC++
		}
	}
	return &libraryBuilder{
		g:       g,
		enc:     enc,
		lib:     lib,
		atomIdx: make(map[atomKey]int32),
		atomLit: make(map[atomKey]int),
	}
}

func (b *libraryBuilder) compile(m cnf.Mark, preVars int) (int32, error) {
	blk, err := sat.CompileBlock(b.enc.VectorFrom(m))
	if err != nil {
		return -1, fmt.Errorf("probe: internal CNF error: %w", err)
	}
	b.lib.blocks = append(b.lib.blocks, blk)
	b.lib.blockVars = append(b.lib.blockVars, int32(b.enc.NumVars()-preVars))
	return int32(len(b.lib.blocks) - 1), nil
}

// addRule appends the definition region for one rule: one block per
// distinct not-yet-compiled (field, ternary) atom plus one for the rule's
// conjunction. Definition literals get fixed variable ids, which is what
// lets a block compiled once be attached to any number of solves.
func (b *libraryBuilder) addRule(r *flowtable.Rule) error {
	if _, dup := b.lib.matchLit[r.ID]; dup {
		return fmt.Errorf("probe: rule %d already compiled", r.ID)
	}
	var idxs []int32
	var parts []*cnf.Formula
	for f := header.FieldID(0); f < header.NumFields; f++ {
		t := r.Match[f]
		if t.IsWildcard() {
			continue
		}
		k := atomKey{f, t.Value, t.Mask}
		bi, ok := b.atomIdx[k]
		if !ok {
			m, pre := b.enc.Mark(), b.enc.NumVars()
			b.atomLit[k] = b.enc.Define(cnf.And(ternaryLits(f, t)...))
			var err error
			if bi, err = b.compile(m, pre); err != nil {
				return err
			}
			b.atomIdx[k] = bi
		}
		parts = append(parts, cnf.Lit(b.atomLit[k]))
		if !b.lib.blocks[bi].Empty() {
			idxs = append(idxs, bi)
		}
	}
	m, pre := b.enc.Mark(), b.enc.NumVars()
	b.lib.matchLit[r.ID] = b.enc.Define(cnf.And(parts...))
	bi, err := b.compile(m, pre)
	if err != nil {
		return err
	}
	if !b.lib.blocks[bi].Empty() {
		idxs = append(idxs, bi)
	}
	b.lib.ruleBlocks[r.ID] = idxs
	return nil
}

// dropRule forgets a rule's definitions. Its blocks stay in the library as
// garbage (atoms may be shared); SessionCache triggers a full rebuild once
// too much garbage accumulates.
func (b *libraryBuilder) dropRule(id uint64) {
	if _, ok := b.lib.matchLit[id]; !ok {
		return
	}
	delete(b.lib.matchLit, id)
	delete(b.lib.ruleBlocks, id)
	b.removed++
}

// newSession builds a Session over the builder's current library for the
// given table snapshot. The session shares the builder's master encoder:
// a generate's per-rule delta always rewinds to the library mark, so the
// builder may append further rule regions later (SessionCache delta
// recompiles), after which refreshLibrary re-anchors the session.
func (b *libraryBuilder) newSession(table *flowtable.Table, rules []*flowtable.Rule) (*Session, error) {
	solver, empty, err := newSolver(b.lib.baseVars, b.lib.baseVec)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		g:          b.g,
		table:      table,
		rules:      rules,
		lib:        b.lib,
		enc:        b.enc,
		libMark:    b.enc.Mark(),
		libVars:    b.enc.NumVars(),
		libClauses: b.enc.NumClauses(),
		solver:     solver,
		empty:      empty,
	}
	sess.buildViews()
	return sess, nil
}

// refreshLibrary re-anchors a session after its builder appended new rule
// regions to the shared library/encoder: new library mark, fresh rule
// snapshot and forwarding views (a Table.Modify changes actions in place,
// so views cannot be carried over). The persistent solver carries over
// untouched: between clusters it holds only the tiny base.
func (s *Session) refreshLibrary(table *flowtable.Table, rules []*flowtable.Rule) {
	s.table = table
	s.rules = rules
	s.libMark = s.enc.Mark()
	s.libVars = s.enc.NumVars()
	s.libClauses = s.enc.NumClauses()
	s.buildViews()
}

// Session generates probes for the rules of one table through a single
// persistent solver instance.
type Session struct {
	g     *Generator
	table *flowtable.Table
	rules []*flowtable.Rule

	lib        *tableLibrary
	enc        *cnf.Encoder
	libMark    cnf.Mark // rewind point: everything past it is per-rule delta
	libVars    int      // encoder variable count at the library mark
	libClauses int      // encoder clause count at the library mark
	solver     *sat.Solver
	empty      sat.Checkpoint // taken before the base (Collect, wire safety, domains) was added

	// Cluster state (see cluster.go): while a cluster is open, its shared
	// prefix blocks are attached behind clusterCp, and each member's work
	// is retracted back to it.
	clusterCp  sat.Checkpoint
	prefixVars int // instance-size contribution of the attached prefix
	prefixNC   int

	sigStamp []uint32 // scope-signature dedup scratch (planning)
	sigGen   uint32

	// Per-generate scratch, reused across calls to keep the hot path off
	// the allocator.
	assumeScratch []int
	lowerScratch  []*flowtable.Rule
	condScratch   []*cnf.Formula
	thenScratch   []*cnf.Formula

	// Forwarding views of every table rule plus the synthetic miss rule,
	// built once per session and shared read-only with forks.
	views map[*flowtable.Rule]*fwdView
	miss  *flowtable.Rule
}

// buildViews precomputes the forwarding views the Distinguish terms need.
func (s *Session) buildViews() {
	s.miss = missRule(s.table.Miss)
	s.views = make(map[*flowtable.Rule]*fwdView, len(s.rules)+1)
	for _, r := range s.rules {
		s.views[r] = newFwdView(r)
	}
	s.views[s.miss] = newFwdView(s.miss)
}

// fwdViewOf returns the cached view, or a fresh one for rules outside the
// session's table snapshot (never cached: the map is shared with forks).
func (s *Session) fwdViewOf(r *flowtable.Rule) *fwdView {
	if v, ok := s.views[r]; ok {
		return v
	}
	return newFwdView(r)
}

// NewSession compiles the table (Collect, wire safety, domains, one
// definition block per match atom and rule) and prepares the persistent
// solver.
func (g *Generator) NewSession(table *flowtable.Table) (*Session, error) {
	b := g.newLibraryBuilder()
	rules := table.Rules()
	for _, r := range rules {
		if err := b.addRule(r); err != nil {
			return nil, err
		}
	}
	return b.newSession(table, rules)
}

// Fork returns an independent Session over the same table, sharing the
// compiled library (base vector, definition blocks, match literals) and
// replaying only the small base into a fresh solver. Forks generate
// identical probes to the parent for any given rule.
func (s *Session) Fork() (*Session, error) {
	enc := s.enc.Fork()
	solver, empty, err := newSolver(s.lib.baseVars, s.lib.baseVec)
	if err != nil {
		return nil, err
	}
	return &Session{
		g:          s.g,
		table:      s.table,
		rules:      s.rules,
		lib:        s.lib,
		enc:        enc,
		libMark:    enc.Mark(),
		libVars:    s.libVars,
		libClauses: s.libClauses,
		solver:     solver,
		empty:      empty,
		views:      s.views, // read-only after buildViews
		miss:       s.miss,
	}, nil
}

// scopeFor validates the probed rule and computes its overlap scope.
func (s *Session) scopeFor(probed *flowtable.Rule) ([]*flowtable.Rule, error) {
	if err := s.g.checkReserved(probed); err != nil {
		return nil, err
	}
	var scope []*flowtable.Rule
	if s.g.cfg.SkipOverlapFilter {
		for _, r := range s.rules {
			if r != probed && r.ID != probed.ID {
				scope = append(scope, r)
			}
		}
	} else {
		scope = s.table.Overlapping(probed)
	}
	for _, r := range scope {
		if err := s.g.checkReserved(r); err != nil {
			return nil, err
		}
	}
	return scope, nil
}

// Generate creates a probe for `probed` through the session's persistent
// solver. It is equivalent to Generator.Generate over the session's table:
// the same rules are monitorable, the same errors are reported, and the
// probe header is the same (both decide the header bits first, toward
// referencePhase); only the solver statistics differ.
func (s *Session) Generate(probed *flowtable.Rule) (*Probe, error) {
	res := s.result(probed)
	return res.Probe, res.Err
}

// result solves probed as a cluster of its own, whose prefix is every
// block its scope attaches.
func (s *Session) result(probed *flowtable.Rule) Result {
	scope, err := s.scopeFor(probed)
	if err != nil {
		return Result{Rule: probed, Err: err}
	}
	m := clusterMember{scope: scope}
	s.beginCluster(&cluster{prefix: s.sigOf(scope)})
	defer s.endCluster()
	return s.generate(probed, &m)
}

// generate solves one member of the open cluster: it adds the member's
// suffix blocks and the Distinguish delta on top of the cluster prefix
// and solves under the Hit assumptions. It leaves the solver as the solve
// left it; the caller retracts to the cluster checkpoint.
func (s *Session) generate(probed *flowtable.Rule, m *clusterMember) Result {
	g := s.g
	scope := m.scope

	// Hit, as assumptions: the probed rule's constrained match bits, and
	// ¬match for every higher-priority rule in scope via its definition
	// literal.
	assume := appendMatchAssumptions(s.assumeScratch[:0], probed.Match)
	lower := s.lowerScratch[:0]
	for _, r := range scope {
		switch {
		case r.Priority > probed.Priority:
			ml, ok := s.lib.matchLit[r.ID]
			if !ok {
				return Result{Rule: probed, Err: fmt.Errorf("probe: rule %d not part of the session table", r.ID)}
			}
			assume = append(assume, -ml)
		case r.Priority < probed.Priority:
			lower = append(lower, r)
		default:
			if r.Match.Overlaps(probed.Match) {
				return Result{Rule: probed, Err: fmt.Errorf("probe: rule %d overlaps probed rule %d at equal priority", r.ID, probed.ID)}
			}
		}
	}

	s.assumeScratch = assume
	s.lowerScratch = lower

	// Distinguish, as freshly encoded delta clauses: the Velev
	// if-then-else chain (§5.3) whose conditions are the rules'
	// definition literals.
	slices.SortStableFunc(lower, func(a, b *flowtable.Rule) int { return cmp.Compare(b.Priority, a.Priority) })
	miss := s.miss
	probedView := s.fwdViewOf(probed)
	if cap(s.condScratch) < len(lower) {
		s.condScratch = make([]*cnf.Formula, len(lower))
		s.thenScratch = make([]*cnf.Formula, len(lower))
	}
	conds := s.condScratch[:len(lower)]
	thens := s.thenScratch[:len(lower)]
	for i, r := range lower {
		ml, ok := s.lib.matchLit[r.ID]
		if !ok {
			return Result{Rule: probed, Err: fmt.Errorf("probe: rule %d not part of the session table", r.ID)}
		}
		conds[i] = cnf.Lit(ml)
		thens[i] = diffOutcomeView(probed, r, probedView, s.fwdViewOf(r), g.cfg.Counting)
	}

	defer s.enc.Reset(s.libMark)
	s.enc.Assert(cnf.ITEChain(conds, thens, diffOutcomeView(probed, miss, probedView, s.fwdViewOf(miss), g.cfg.Counting)))
	if s.enc.Unsat() {
		return Result{Rule: probed, Err: ErrUnmonitorable}
	}
	s.solver.EnsureVars(s.enc.NumVars())

	// The cluster prefix is attached already; add the member's suffix,
	// tracking the size of the instance actually handed to the solver.
	instVars := s.lib.baseVars + s.prefixVars
	instClauses := s.lib.baseNC + s.prefixNC
	for _, bi := range m.suffix {
		s.solver.AddBlock(&s.lib.blocks[bi])
		instVars += int(s.lib.blockVars[bi])
		instClauses += s.lib.blocks[bi].NumClauses()
	}
	// The Distinguish delta goes through the normalizing AddDIMACSVector
	// path on purpose: an if-then-else chain may repeat a condition
	// literal (two rules with identical matches share a definition), so
	// its clauses can contain duplicate or tautological literals, which
	// compiled blocks deliberately do not handle.
	if err := s.solver.AddDIMACSVector(s.enc.VectorFrom(s.libMark)); err != nil {
		return Result{Rule: probed, Err: fmt.Errorf("probe: internal CNF error: %w", err)}
	}
	instVars += s.enc.NumVars() - s.libVars
	instClauses += s.enc.NumClauses() - s.libClauses

	d0, _, c0 := s.solver.Stats()
	status, model := s.solver.SolveAssuming(assume...)
	d1, _, c1 := s.solver.Stats()
	if status != sat.Satisfiable {
		return Result{Rule: probed, Err: ErrUnmonitorable}
	}
	h := header.FromModel(model)

	h, repaired, err := g.repairDomains(h, s.table)
	if err != nil {
		return Result{Rule: probed, Err: err, repaired: repaired}
	}
	h = canonicalizeExcluded(h)

	p := &Probe{
		RuleID: probed.ID,
		Header: h,
		Stats: Stats{
			Vars:        instVars,
			Clauses:     instClauses,
			Overlapping: len(scope),
			Decisions:   d1 - d0,
			Conflicts:   c1 - c0,
		},
	}
	p.Present = outcomeOf(probed, h)
	p.Absent = g.absentOutcome(s.table, probed, h)
	p.Negative = p.Present.Drop

	if g.cfg.ValidateModel {
		if err := g.validate(s.table, probed, p); err != nil {
			return Result{Rule: probed, Err: err, repaired: repaired}
		}
	}
	return Result{Rule: probed, Probe: p, repaired: repaired}
}

// beginCluster attaches the cluster's shared block prefix on top of the
// base and opens the cluster checkpoint the per-rule retracts return to.
func (s *Session) beginCluster(c *cluster) {
	maxVar := s.lib.baseVars
	for _, bi := range c.prefix {
		if mv := s.lib.blocks[bi].MaxVar(); mv > maxVar {
			maxVar = mv
		}
	}
	s.solver.EnsureVars(maxVar)
	pv, pc := 0, 0
	for _, bi := range c.prefix {
		s.solver.AddBlock(&s.lib.blocks[bi])
		pv += int(s.lib.blockVars[bi])
		pc += s.lib.blocks[bi].NumClauses()
	}
	s.prefixVars, s.prefixNC = pv, pc
	s.clusterCp = s.solver.Mark()
}

// endCluster retracts to the checkpoint taken before the base and adds
// the base again, which is the state a new session's solver has. Probe
// headers do not need it (the header decision order makes them
// canonical); it keeps each cluster's solver work, and so the Decisions
// and Conflicts a probe reports, independent of the clusters before it
// and of the worker that ran it.
func (s *Session) endCluster() {
	s.solver.RetractTo(s.empty)
	// newSolver added the same vector without error.
	_ = s.solver.AddDIMACSVector(s.lib.baseVec)
}

// appendMatchAssumptions appends the Table-3 match encoding as raw
// assumption literals: one per constrained bit of m (cf. matchFormula).
func appendMatchAssumptions(lits []int, m flowtable.Match) []int {
	for f := header.FieldID(0); f < header.NumFields; f++ {
		t := m[f]
		if t.IsWildcard() {
			continue
		}
		w := header.Width(f)
		for b := 0; b < w; b++ {
			if t.Mask>>(w-1-b)&1 == 0 {
				continue
			}
			v := header.BitVar(f, b)
			if t.Value>>(w-1-b)&1 == 1 {
				lits = append(lits, v)
			} else {
				lits = append(lits, -v)
			}
		}
	}
	return lits
}
