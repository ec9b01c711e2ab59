package probe

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"monocle/internal/cnf"
	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/sat"
)

// ErrUnmonitorable is returned when no probe packet can distinguish the
// presence of the rule (§3.5): the rule is hidden by higher-priority
// rules, or it does not change the observable forwarding behaviour.
var ErrUnmonitorable = errors.New("probe: rule is unmonitorable (constraints unsatisfiable)")

// ErrRewritesProbeField is returned when a rule in scope rewrites one of
// the reserved probing fields, which would break probe collection (§3.2).
var ErrRewritesProbeField = errors.New("probe: rule rewrites a reserved probing field")

// Outcome describes what the data plane does to the probe in one of the
// two hypotheses (rule present / rule absent).
type Outcome struct {
	// Rule is the rule that processes the probe under this hypothesis;
	// nil means table miss.
	Rule *flowtable.Rule
	// Drop reports that the probe is not emitted anywhere.
	Drop bool
	// ECMP reports that exactly one emission from Emissions occurs (the
	// switch picks which); otherwise all Emissions occur.
	ECMP bool
	// Emissions lists (port, rewritten header) pairs.
	Emissions []flowtable.Emission
}

// Matches reports whether an observed (port, header) pair is consistent
// with the outcome.
func (o Outcome) Matches(p flowtable.PortID, h header.Header) bool {
	for _, e := range o.Emissions {
		if e.Port == p && e.Header == h {
			return true
		}
	}
	return false
}

// Probe is a generated monitoring packet together with the outcomes it
// discriminates between.
type Probe struct {
	// RuleID is the probed rule's identifier.
	RuleID uint64
	// Header is the abstract probe packet.
	Header header.Header
	// Present is the expected data plane behaviour when the probed rule
	// is installed and working.
	Present Outcome
	// Absent is the behaviour when the rule is missing (the
	// highest-priority lower rule, or the table miss, processes it).
	Absent Outcome
	// Negative reports that Present expects *no* probe to be collected
	// (drop-rule probing, §3.3), so absence of evidence confirms the
	// rule with a false-positive risk.
	Negative bool
	// Stats carries solver statistics for this generation.
	Stats Stats
}

// Stats captures per-probe generation metrics, used by the Table 2
// reproduction.
type Stats struct {
	Vars        int
	Clauses     int
	Overlapping int
	Decisions   int64
	Conflicts   int64
}

// Config parameterizes a Generator.
type Config struct {
	// Collect is the match the probe must satisfy to be caught at the
	// desired downstream switch (the Collect constraint). A zero Match
	// disables the constraint (useful for unit tests).
	Collect flowtable.Match
	// Domains restricts field values to what the packet crafter can
	// emit; nil uses header.DefaultDomains.
	Domains map[header.FieldID]header.Domain
	// ReservedFields are the probing tag fields; rules rewriting them
	// make probing unsound and are rejected (§3.2).
	ReservedFields []header.FieldID
	// Counting enables the probe-counting exception for
	// multicast-vs-ECMP distinction (§3.4).
	Counting bool
	// MaxChain forwards to the CNF encoder's chain-splitting bound;
	// zero keeps the encoder default.
	MaxChain int
	// SkipOverlapFilter disables the §5.4 optimization and feeds every
	// rule into the constraints (for the ablation benchmark).
	SkipOverlapFilter bool
	// ValidateModel double-checks the SAT model against the table
	// semantics before returning (cheap; recommended).
	ValidateModel bool
}

// Generator turns (table, rule) pairs into probes. It is stateless apart
// from configuration and safe for concurrent use (the paper generates
// probes for different rules in parallel).
type Generator struct {
	cfg Config
}

// NewGenerator returns a Generator with the given configuration.
func NewGenerator(cfg Config) *Generator {
	if cfg.Domains == nil {
		cfg.Domains = header.DefaultDomains()
	}
	return &Generator{cfg: cfg}
}

// missRule synthesizes the virtual lowest-priority rule representing the
// table-miss behaviour, so the Distinguish chain has a well-defined else.
func missRule(miss flowtable.TableMiss) *flowtable.Rule {
	r := &flowtable.Rule{ID: math.MaxUint64, Priority: math.MinInt}
	if miss == flowtable.MissController {
		r.Actions = []flowtable.Action{flowtable.Output(flowtable.PortController)}
	}
	return r
}

// referencePhase is the decision phase of every header bit: the bits of
// one fixed, wire-valid reference header (locally administered unicast
// MACs, non-zero IPv4 addresses, an untagged IPv4/TCP packet). The solver
// decides the header bits first, in BitVar order, each toward this phase
// (sat.Solver.DecideFirst), so a probe header is the first satisfying
// header in that order: a function of the probed rule, its overlap set,
// the table miss and the configuration alone, whichever session, cluster
// or worker solves it and whatever was solved before.
var referencePhase = func() []bool {
	var h header.Header
	h.Set(header.EthSrc, 0x02_00_00_00_00_01)
	h.Set(header.EthDst, 0x02_00_00_00_00_02)
	h.Set(header.EthType, header.EthTypeIPv4)
	h.Set(header.VlanID, header.VlanNone)
	h.Set(header.IPSrc, 10<<24|1)
	h.Set(header.IPDst, 10<<24|2)
	h.Set(header.IPProto, header.ProtoTCP)
	h.Set(header.TPSrc, 49152)
	h.Set(header.TPDst, 80)
	phase := make([]bool, header.TotalBits)
	for f := header.FieldID(0); f < header.NumFields; f++ {
		for b := 0; b < header.Width(f); b++ {
			phase[header.BitVar(f, b)-1] = h.Bit(f, b)
		}
	}
	return phase
}()

// newSolver returns a solver over nVars variables holding the clause
// vector, with the header bits decided first toward referencePhase, and
// the checkpoint taken before the vector was added: retracting to it
// gives back the state sat.New returned.
func newSolver(nVars int, vec []int) (*sat.Solver, sat.Checkpoint, error) {
	solver := sat.New(nVars)
	solver.DecideFirst(referencePhase)
	empty := solver.Mark()
	if err := solver.AddDIMACSVector(vec); err != nil {
		return nil, empty, fmt.Errorf("probe: internal CNF error: %w", err)
	}
	return solver, empty, nil
}

// newEncoder returns an empty encoder with the configured chain bound.
func (g *Generator) newEncoder() *cnf.Encoder {
	enc := cnf.NewEncoder(header.TotalBits)
	if g.cfg.MaxChain > 0 {
		enc.MaxChain = g.cfg.MaxChain
	}
	return enc
}

// assertBase asserts the rule-independent constraints every probe
// satisfies: Collect (match the downstream catching rule), wire safety,
// and the limited domains (§5.2), where an enumerable domain becomes a
// "one of" constraint and a large one is repaired after the solve
// (repairDomains). Domains are asserted in field order, so every encoder
// for one config holds the same clause sequence.
func (g *Generator) assertBase(enc *cnf.Encoder) {
	enc.Assert(matchFormula(g.cfg.Collect))
	enc.Assert(wireSafe)
	for f := header.FieldID(0); f < header.NumFields; f++ {
		d := g.cfg.Domains[f]
		if d.Values == nil {
			continue
		}
		alts := make([]*cnf.Formula, len(d.Values))
		for i, v := range d.Values {
			alts[i] = fieldEquals(f, v)
		}
		enc.Assert(cnf.Or(alts...))
	}
}

// Generate creates a probe for `probed`, which must be present in table.
// It returns ErrUnmonitorable when the constraints are unsatisfiable and
// ErrRewritesProbeField when reserved fields are rewritten in scope.
func (g *Generator) Generate(table *flowtable.Table, probed *flowtable.Rule) (*Probe, error) {
	if err := g.checkReserved(probed); err != nil {
		return nil, err
	}

	var scope []*flowtable.Rule
	if g.cfg.SkipOverlapFilter {
		for _, r := range table.Rules() {
			if r != probed && r.ID != probed.ID {
				scope = append(scope, r)
			}
		}
	} else {
		scope = table.Overlapping(probed)
	}
	for _, r := range scope {
		if err := g.checkReserved(r); err != nil {
			return nil, err
		}
	}

	enc := g.newEncoder()

	// Hit: match the probed rule, avoid all higher-priority rules.
	enc.Assert(matchFormula(probed.Match))
	var lower []*flowtable.Rule
	for _, r := range scope {
		if r.Priority > probed.Priority {
			enc.Assert(cnf.Not(matchFormula(r.Match)))
		} else if r.Priority < probed.Priority {
			lower = append(lower, r)
		} else {
			// Equal priority with overlap is undefined behaviour;
			// tables reject it, but scope may be unfiltered.
			if r.Match.Overlaps(probed.Match) {
				return nil, fmt.Errorf("probe: rule %d overlaps probed rule %d at equal priority", r.ID, probed.ID)
			}
		}
	}

	g.assertBase(enc)

	// Distinguish: if the probed rule were absent, the probe would be
	// processed by the highest-priority matching lower rule (or the
	// table miss); the outcome must differ. Encoded as the Velev
	// if-then-else chain in decreasing priority order (§5.3).
	sort.SliceStable(lower, func(i, j int) bool { return lower[i].Priority > lower[j].Priority })
	miss := missRule(table.Miss)
	conds := make([]*cnf.Formula, len(lower))
	thens := make([]*cnf.Formula, len(lower))
	for i, r := range lower {
		conds[i] = matchFormula(r.Match)
		thens[i] = diffOutcome(probed, r, g.cfg.Counting)
	}
	enc.Assert(cnf.ITEChain(conds, thens, diffOutcome(probed, miss, g.cfg.Counting)))

	if enc.Unsat() {
		return nil, ErrUnmonitorable
	}
	solver, _, err := newSolver(enc.NumVars(), enc.Vector())
	if err != nil {
		return nil, err
	}
	status, model := solver.Solve()
	if status != sat.Satisfiable {
		return nil, ErrUnmonitorable
	}
	h := header.FromModel(model)

	// Post-solve repairs.
	h, _, err = g.repairDomains(h, table)
	if err != nil {
		return nil, err
	}
	h = canonicalizeExcluded(h)

	decisions, _, conflicts := solver.Stats()
	p := &Probe{
		RuleID: probed.ID,
		Header: h,
		Stats: Stats{
			Vars:        enc.NumVars(),
			Clauses:     enc.NumClauses(),
			Overlapping: len(scope),
			Decisions:   decisions,
			Conflicts:   conflicts,
		},
	}
	p.Present = outcomeOf(probed, h)
	p.Absent = g.absentOutcome(table, probed, h)
	p.Negative = p.Present.Drop

	if g.cfg.ValidateModel {
		if err := g.validate(table, probed, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (g *Generator) checkReserved(r *flowtable.Rule) error {
	if f, ok := g.reservedRewrite(r.Actions); ok {
		return fmt.Errorf("%w: rule %d sets %s", ErrRewritesProbeField, r.ID, f)
	}
	return nil
}

// reservedRewrite returns the first reserved field that acts sets.
func (g *Generator) reservedRewrite(acts []flowtable.Action) (header.FieldID, bool) {
	for _, a := range acts {
		if a.Kind != flowtable.ActionSetField {
			continue
		}
		for _, f := range g.cfg.ReservedFields {
			if a.Field == f {
				return f, true
			}
		}
	}
	return 0, false
}

// repairDomains applies the spare-value substitution lemma to fields with
// large (non-enumerated) domains whose solved value is invalid: replacing
// the value with a spare (valid, unused by any rule) value preserves every
// Matches test. The lemma requires the field to be fully wildcarded or
// fully specified in every rule; callers' rule sets satisfy this for
// dl_vlan, the only large constrained domain here. repaired reports that a
// value was replaced (or would have been, on error): the header then
// depends on every rule of the table, not only on the probed rule's
// overlap set.
func (g *Generator) repairDomains(h header.Header, table *flowtable.Table) (_ header.Header, repaired bool, _ error) {
	for f, d := range g.cfg.Domains {
		if d.Values != nil || d.Contains(h.Get(f)) {
			continue
		}
		repaired = true
		used := map[uint64]bool{}
		for _, r := range table.View() {
			t := r.Match[f]
			if t.IsExact(f) {
				used[t.Value] = true
			} else if !t.IsWildcard() {
				return h, true, fmt.Errorf("probe: field %s partially masked in rule %d; spare-value lemma inapplicable", f, r.ID)
			}
		}
		// The collect match may also pin the field.
		if ct := g.cfg.Collect[f]; !ct.IsWildcard() {
			used[ct.Value] = true
		}
		spare, ok := d.Spare(used, header.WidthMask(f))
		if !ok {
			return h, true, fmt.Errorf("probe: no spare value for field %s", f)
		}
		h.Set(f, spare)
	}
	return h, repaired, nil
}

// canonicalizeExcluded zeroes conditionally-excluded fields (§5.2): this
// does not change any Matches value for well-formed rules (see the paper's
// second lemma), and gives the packet crafter a consistent view.
func canonicalizeExcluded(h header.Header) header.Header {
	deps := header.Dependencies()
	for f, dep := range deps {
		ok := false
		for _, pv := range dep.ParentValues {
			if h.Get(dep.Parent) == pv {
				ok = true
				break
			}
		}
		if !ok {
			h.Set(f, 0)
		}
	}
	if header.PCPRequiresTag(h.Get(header.VlanID)) {
		h.Set(header.VlanPCP, 0)
	}
	return h
}

// outcomeOf evaluates what rule r does with probe h.
func outcomeOf(r *flowtable.Rule, h header.Header) Outcome {
	o := Outcome{Rule: r, ECMP: r.IsECMP()}
	if r.IsDrop() {
		o.Drop = true
		return o
	}
	if o.ECMP {
		// One emission per candidate port; exactly one will occur.
		for _, a := range r.Actions {
			if a.Kind != flowtable.ActionGroupECMP {
				continue
			}
			w, _ := r.RewriteOnPort(a.Ports[0])
			for _, p := range a.Ports {
				o.Emissions = append(o.Emissions, flowtable.Emission{Port: p, Header: w.Apply(h)})
			}
		}
		return o
	}
	o.Emissions = r.Apply(h, nil)
	return o
}

// absentOutcome computes the probe's fate if the probed rule were missing
// from the data plane: the highest-priority other matching rule, or the
// table miss.
func (g *Generator) absentOutcome(table *flowtable.Table, probed *flowtable.Rule, h header.Header) Outcome {
	for _, r := range table.View() {
		if r == probed || r.ID == probed.ID {
			continue
		}
		if r.Match.Covers(h) && r.Priority < probed.Priority {
			return outcomeOf(r, h)
		}
	}
	miss := missRule(table.Miss)
	o := outcomeOf(miss, h)
	o.Rule = nil
	return o
}

// validate cross-checks the generated probe against table semantics: it
// must hit the probed rule, satisfy Collect, and the two outcomes must be
// distinguishable.
func (g *Generator) validate(table *flowtable.Table, probed *flowtable.Rule, p *Probe) error {
	if !probed.Match.Covers(p.Header) {
		return fmt.Errorf("probe: generated probe does not match probed rule %d", probed.ID)
	}
	if got := table.Lookup(p.Header); got != nil && got.ID != probed.ID && got.Priority > probed.Priority {
		return fmt.Errorf("probe: probe hits higher-priority rule %d", got.ID)
	}
	zero := flowtable.Match{}
	if g.cfg.Collect != zero && !g.cfg.Collect.Covers(p.Header) {
		return fmt.Errorf("probe: probe violates Collect constraint")
	}
	if !distinguishable(p.Present, p.Absent) {
		return fmt.Errorf("probe: outcomes not distinguishable for rule %d", probed.ID)
	}
	return nil
}

// distinguishable reports whether no adversarial choice of ECMP ports can
// make the two outcomes produce identical observations.
func distinguishable(a, b Outcome) bool {
	obsA := observations(a)
	obsB := observations(b)
	// Deterministic outcomes produce exactly one observation set each;
	// ECMP outcomes produce one per candidate. The outcomes are
	// distinguishable iff the observation families are disjoint.
	for _, oa := range obsA {
		for _, ob := range obsB {
			if equalObs(oa, ob) {
				return false
			}
		}
	}
	return true
}

type obs []flowtable.Emission

// observations expands an Outcome into the family of possible observation
// sets (singleton for deterministic rules, one per port for ECMP).
func observations(o Outcome) []obs {
	if o.Drop {
		return []obs{nil}
	}
	if !o.ECMP {
		cp := make(obs, len(o.Emissions))
		copy(cp, o.Emissions)
		sortObs(cp)
		return []obs{cp}
	}
	var out []obs
	for _, e := range o.Emissions {
		out = append(out, obs{e})
	}
	return out
}

func sortObs(o obs) {
	sort.Slice(o, func(i, j int) bool {
		if o[i].Port != o[j].Port {
			return o[i].Port < o[j].Port
		}
		return o[i].Header.String() < o[j].Header.String()
	})
}

func equalObs(a, b obs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
