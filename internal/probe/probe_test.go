package probe

import (
	"errors"
	"math/rand"
	"testing"

	"monocle/internal/flowtable"
	"monocle/internal/header"
)

func ip(a, b, c, d uint64) uint64 { return a<<24 | b<<16 | c<<8 | d }

// newTable builds a flowtable and fails the test on insert errors.
func newTable(t *testing.T, miss flowtable.TableMiss, rules ...*flowtable.Rule) *flowtable.Table {
	t.Helper()
	tb := flowtable.New()
	tb.Miss = miss
	for _, r := range rules {
		if err := tb.Insert(r); err != nil {
			t.Fatalf("insert %v: %v", r, err)
		}
	}
	return tb
}

func gen() *Generator {
	return NewGenerator(Config{ValidateModel: true})
}

func srcMatch(a, b, c, d uint64, plen int) flowtable.Match {
	return flowtable.MatchAll().With(header.IPSrc, header.Prefix(header.IPSrc, ip(a, b, c, d), plen))
}

// TestPaperSection31Example reproduces the paper's §3.1 example: a naive
// "avoid lower-priority rules with the same outcome" would find no probe,
// but the correct Distinguish constraint admits P=(10.0.0.1, 10.0.0.2).
func TestPaperSection31Example(t *testing.T) {
	lowest := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	lower := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 1, 32),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	probed := &flowtable.Rule{ID: 3, Priority: 3,
		Match:   srcMatch(10, 0, 0, 1, 32).WithExact(header.IPDst, ip(10, 0, 0, 2)),
		Actions: []flowtable.Action{flowtable.Output(1)}}
	tb := newTable(t, flowtable.MissDrop, lowest, lower, probed)
	p, err := gen().Generate(tb, probed)
	if err != nil {
		t.Fatalf("expected a probe to exist: %v", err)
	}
	if p.Header.Get(header.IPSrc) != ip(10, 0, 0, 1) || p.Header.Get(header.IPDst) != ip(10, 0, 0, 2) {
		t.Fatalf("probe must be the unique flow: %v", p.Header)
	}
	// Present: forwarded to port 1 by probed; Absent: port 2 via lower.
	if p.Present.Emissions[0].Port != 1 {
		t.Fatalf("present port %d", p.Present.Emissions[0].Port)
	}
	if p.Absent.Rule != lower || p.Absent.Emissions[0].Port != 2 {
		t.Fatalf("absent outcome %+v", p.Absent)
	}
}

// TestUnmonitorableSameOutcome: a high-priority rule forwarding to the same
// port as the only underlying rule cannot be probed (§3.2 lead-in).
func TestUnmonitorableSameOutcome(t *testing.T) {
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	high := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 1, 32),
		Actions: []flowtable.Action{flowtable.Output(1)}}
	tb := newTable(t, flowtable.MissDrop, low, high)
	_, err := gen().Generate(tb, high)
	if !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("got %v, want ErrUnmonitorable", err)
	}
}

// TestRewriteMakesMonitorable: the same layout becomes monitorable when the
// high-priority rule rewrites ToS, and the probe must carry ToS != voice.
func TestRewriteMakesMonitorable(t *testing.T) {
	const voice = 0x2e
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	high := &flowtable.Rule{ID: 2, Priority: 2,
		Match: srcMatch(10, 0, 0, 1, 32),
		Actions: []flowtable.Action{
			flowtable.SetField(header.IPTos, voice), flowtable.Output(1)}}
	tb := newTable(t, flowtable.MissDrop, low, high)
	p, err := gen().Generate(tb, high)
	if err != nil {
		t.Fatalf("rewrite rule must be monitorable: %v", err)
	}
	if p.Header.Get(header.IPTos) == voice {
		t.Fatalf("probe ToS %#x must differ from the rewritten value", p.Header.Get(header.IPTos))
	}
	// Present: ToS rewritten; Absent: ToS unchanged — same port.
	if p.Present.Emissions[0].Header.Get(header.IPTos) != voice {
		t.Fatal("present outcome must carry the rewrite")
	}
	if p.Absent.Emissions[0].Header.Get(header.IPTos) == voice {
		t.Fatal("absent outcome must not carry the rewrite")
	}
}

// TestHiddenRuleUnmonitorable: a backup rule fully shadowed by a
// higher-priority rule has no probe (§3.5).
func TestHiddenRuleUnmonitorable(t *testing.T) {
	primary := &flowtable.Rule{ID: 1, Priority: 5,
		Match:   srcMatch(10, 0, 0, 0, 24),
		Actions: []flowtable.Action{flowtable.Output(1)}}
	backup := &flowtable.Rule{ID: 2, Priority: 4,
		Match:   srcMatch(10, 0, 0, 0, 24),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, primary, backup)
	_, err := gen().Generate(tb, backup)
	if !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("got %v, want ErrUnmonitorable", err)
	}
}

// TestDropRuleNegativeProbe: drop rules are distinguishable from the
// forwarding default and flagged for negative probing (§3.3).
func TestDropRuleNegativeProbe(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	drop := &flowtable.Rule{ID: 2, Priority: 2, Match: srcMatch(10, 0, 0, 0, 8)}
	tb := newTable(t, flowtable.MissDrop, def, drop)
	p, err := gen().Generate(tb, drop)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Negative || !p.Present.Drop {
		t.Fatalf("drop probe must be negative: %+v", p.Present)
	}
	if p.Absent.Drop || p.Absent.Emissions[0].Port != 1 {
		t.Fatalf("absent must forward via default: %+v", p.Absent)
	}
}

// TestDropVsMissDrop: a drop rule over a drop table-miss is unmonitorable.
func TestDropVsMissDrop(t *testing.T) {
	drop := &flowtable.Rule{ID: 1, Priority: 2, Match: srcMatch(10, 0, 0, 0, 8)}
	tb := newTable(t, flowtable.MissDrop, drop)
	_, err := gen().Generate(tb, drop)
	if !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("got %v", err)
	}
	// ...but monitorable when the miss punts to the controller.
	tb2 := newTable(t, flowtable.MissController, drop.Clone())
	r, _ := tb2.Get(1)
	if _, err := gen().Generate(tb2, r); err != nil {
		t.Fatalf("drop over controller-miss must be monitorable: %v", err)
	}
}

// TestCollectConstraint: the probe must match the downstream catching rule.
func TestCollectConstraint(t *testing.T) {
	const tag = 7
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	probed := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, probed)
	g := NewGenerator(Config{
		ValidateModel: true,
		Collect:       flowtable.MatchAll().WithExact(header.VlanID, tag),
	})
	p, err := g.Generate(tb, probed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.Get(header.VlanID) != tag {
		t.Fatalf("probe VLAN %#x, want catch tag %d", p.Header.Get(header.VlanID), tag)
	}
}

// TestCatchRuleAvoidedAtProbedSwitch: the probed switch's own catching
// rules are ordinary high-priority rules the probe must avoid.
func TestCatchRuleAvoidedAtProbedSwitch(t *testing.T) {
	// Switch i=3 catches probes of neighbours 7 and 9 (strategy 1).
	catch7 := &flowtable.Rule{ID: 100, Priority: 1000,
		Match:   flowtable.MatchAll().WithExact(header.VlanID, 7),
		Actions: []flowtable.Action{flowtable.Output(flowtable.PortController)}}
	catch9 := &flowtable.Rule{ID: 101, Priority: 1000,
		Match:   flowtable.MatchAll().WithExact(header.VlanID, 9),
		Actions: []flowtable.Action{flowtable.Output(flowtable.PortController)}}
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	probed := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, catch7, catch9, def, probed)
	g := NewGenerator(Config{
		ValidateModel: true,
		// The probe carries this switch's own id (3), which neighbours
		// catch.
		Collect: flowtable.MatchAll().WithExact(header.VlanID, 3),
	})
	p, err := g.Generate(tb, probed)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Header.Get(header.VlanID); v != 3 {
		t.Fatalf("VLAN=%#x", v)
	}
}

// TestMulticastVsUnicastDiffPorts: multicast {1,2} vs unicast {1} differ in
// forwarding sets, so a probe exists.
func TestMulticastVsUnicastDiffPorts(t *testing.T) {
	uni := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	mc := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(1), flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, uni, mc)
	p, err := gen().Generate(tb, mc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Present.Emissions) != 2 {
		t.Fatalf("multicast present emissions: %+v", p.Present)
	}
}

// TestECMPvsECMPIntersecting: two ECMP rules with intersecting forwarding
// sets and identical rewrites cannot be distinguished.
func TestECMPvsECMPIntersecting(t *testing.T) {
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.ECMP(1, 2)}}
	high := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.ECMP(2, 3)}}
	tb := newTable(t, flowtable.MissDrop, low, high)
	_, err := gen().Generate(tb, high)
	if !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("intersecting ECMP sets: got %v", err)
	}
}

// TestECMPvsECMPDisjoint: disjoint ECMP sets are distinguishable.
func TestECMPvsECMPDisjoint(t *testing.T) {
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.ECMP(1, 2)}}
	high := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.ECMP(3, 4)}}
	tb := newTable(t, flowtable.MissDrop, low, high)
	p, err := gen().Generate(tb, high)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Present.ECMP || len(p.Present.Emissions) != 2 {
		t.Fatalf("present: %+v", p.Present)
	}
}

// TestECMPRewriteAllPortsMustDiffer: with an ECMP rule involved, the
// rewrite difference must hold on every common port (§3.4).
func TestECMPRewriteAllPortsMustDiffer(t *testing.T) {
	// low ECMP {1,2} with no rewrite; high ECMP {1,2} rewriting ToS on
	// both ports → distinguishable by rewrite on any choice.
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.ECMP(1, 2)}}
	high := &flowtable.Rule{ID: 2, Priority: 2,
		Match: srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{
			flowtable.SetField(header.IPTos, 0x2e), flowtable.ECMP(1, 2)}}
	tb := newTable(t, flowtable.MissDrop, low, high)
	p, err := gen().Generate(tb, high)
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.Get(header.IPTos) == 0x2e {
		t.Fatal("probe ToS must differ from rewrite")
	}
}

// TestCountingException: multicast {1,2} over ECMP {1,2} is separable only
// with probe counting enabled.
func TestCountingException(t *testing.T) {
	low := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.ECMP(1, 2)}}
	mc := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(1), flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, low, mc)
	if _, err := gen().Generate(tb, mc); !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("without counting: got %v", err)
	}
	g := NewGenerator(Config{ValidateModel: true, Counting: true})
	if _, err := g.Generate(tb, mc); err != nil {
		t.Fatalf("with counting: %v", err)
	}
}

// TestReservedFieldRejected: rules rewriting the probe tag field are
// rejected (§3.2).
func TestReservedFieldRejected(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	bad := &flowtable.Rule{ID: 2, Priority: 2,
		Match: srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{
			flowtable.SetField(header.VlanID, 5), flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, bad)
	g := NewGenerator(Config{ValidateModel: true, ReservedFields: []header.FieldID{header.VlanID}})
	if _, err := g.Generate(tb, bad); !errors.Is(err, ErrRewritesProbeField) {
		t.Fatalf("got %v", err)
	}
}

// TestDomainsRespected: the probe's dl_type and nw_proto come from the
// crafting domains.
func TestDomainsRespected(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	probed := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, probed)
	p, err := gen().Generate(tb, probed)
	if err != nil {
		t.Fatal(err)
	}
	doms := header.DefaultDomains()
	if !doms[header.EthType].Contains(p.Header.Get(header.EthType)) {
		t.Fatalf("dl_type %#x outside domain", p.Header.Get(header.EthType))
	}
	if !doms[header.IPProto].Contains(p.Header.Get(header.IPProto)) {
		t.Fatalf("nw_proto %#x outside domain", p.Header.Get(header.IPProto))
	}
	if !doms[header.VlanID].Contains(p.Header.Get(header.VlanID)) {
		t.Fatalf("dl_vlan %#x outside domain", p.Header.Get(header.VlanID))
	}
}

// TestAppendixAReduction encodes the appendix-A SAT instance
// (x1∨x2)∧(¬x2∨x3)∧(¬x3) as high-priority rules over 3 one-bit-relevant
// fields and asks for a probe of the low-priority wildcard rule. The probe
// values must solve the formula.
func TestAppendixAReduction(t *testing.T) {
	// Represent x1,x2,x3 by the LSB of nw_src, nw_dst, tp_src.
	bit := func(f header.FieldID, v uint64) header.Ternary {
		return header.Ternary{Value: v, Mask: 1}
	}
	// Disjunction i is falsified iff the probe matches rule Ri.
	r1 := &flowtable.Rule{ID: 1, Priority: 12, // (x1 ∨ x2): match x1=0 ∧ x2=0
		Match: flowtable.MatchAll().
			With(header.IPSrc, bit(header.IPSrc, 0)).
			With(header.IPDst, bit(header.IPDst, 0)),
		Actions: []flowtable.Action{flowtable.Output(9)}}
	r2 := &flowtable.Rule{ID: 2, Priority: 11, // (¬x2 ∨ x3): match x2=1 ∧ x3=0
		Match: flowtable.MatchAll().
			With(header.IPDst, bit(header.IPDst, 1)).
			With(header.TPSrc, bit(header.TPSrc, 0)),
		Actions: []flowtable.Action{flowtable.Output(9)}}
	r3 := &flowtable.Rule{ID: 3, Priority: 10, // (¬x3): match x3=1
		Match:   flowtable.MatchAll().With(header.TPSrc, bit(header.TPSrc, 1)),
		Actions: []flowtable.Action{flowtable.Output(9)}}
	low := &flowtable.Rule{ID: 4, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	tb := newTable(t, flowtable.MissDrop, r1, r2, r3, low)
	p, err := gen().Generate(tb, low)
	if err != nil {
		t.Fatalf("satisfiable instance must yield a probe: %v", err)
	}
	x1 := p.Header.Get(header.IPSrc)&1 == 1
	x2 := p.Header.Get(header.IPDst)&1 == 1
	x3 := p.Header.Get(header.TPSrc)&1 == 1
	if !((x1 || x2) && (!x2 || x3) && !x3) {
		t.Fatalf("probe bits (%v,%v,%v) do not solve the CNF", x1, x2, x3)
	}
}

// TestModificationProbe: the probe for a modification distinguishes old
// from new actions regardless of other lower-priority rules.
func TestModificationProbe(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	target := &flowtable.Rule{ID: 2, Priority: 5,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, target)
	p, err := gen().GenerateModification(tb, target, []flowtable.Action{flowtable.Output(3)})
	if err != nil {
		t.Fatal(err)
	}
	if p.RuleID != target.ID {
		t.Fatalf("RuleID=%d", p.RuleID)
	}
	if p.Present.Emissions[0].Port != 3 {
		t.Fatalf("present must reflect new actions: %+v", p.Present)
	}
	if p.Absent.Emissions[0].Port != 2 {
		t.Fatalf("absent must reflect old actions: %+v", p.Absent)
	}
}

// TestModificationSameActionsUnmonitorable: modifying a rule to identical
// behaviour cannot be confirmed.
func TestModificationSameActionsUnmonitorable(t *testing.T) {
	target := &flowtable.Rule{ID: 2, Priority: 5,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, target)
	_, err := gen().GenerateModification(tb, target, []flowtable.Action{flowtable.Output(2)})
	if !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("got %v", err)
	}
}

// TestDeletionProbe: deletion reuses the addition probe; Absent is the
// post-deletion behaviour.
func TestDeletionProbe(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	target := &flowtable.Rule{ID: 2, Priority: 5,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, target)
	p, err := gen().Generate(tb, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Absent.Rule != def {
		t.Fatalf("absent rule %v", p.Absent.Rule)
	}
}

// TestStatsPopulated ensures generation metrics are recorded.
func TestStatsPopulated(t *testing.T) {
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(1)}}
	probed := &flowtable.Rule{ID: 2, Priority: 2,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, def, probed)
	p, err := gen().Generate(tb, probed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Vars < header.TotalBits || p.Stats.Clauses == 0 || p.Stats.Overlapping != 1 {
		t.Fatalf("stats %+v", p.Stats)
	}
}

// randomRule builds a random valid rule for the property test.
func randomRule(rng *rand.Rand, id uint64) *flowtable.Rule {
	m := flowtable.MatchAll()
	if rng.Intn(2) == 0 {
		m = m.With(header.IPSrc, header.Prefix(header.IPSrc, rng.Uint64(), 8*(1+rng.Intn(4))))
	}
	if rng.Intn(2) == 0 {
		m = m.With(header.IPDst, header.Prefix(header.IPDst, rng.Uint64(), 8*(1+rng.Intn(4))))
	}
	if rng.Intn(4) == 0 {
		m = m.WithExact(header.IPProto, []uint64{1, 6, 17}[rng.Intn(3)])
	}
	var acts []flowtable.Action
	switch rng.Intn(6) {
	case 0: // drop
	case 1: // ECMP
		acts = append(acts, flowtable.ECMP(flowtable.PortID(1+rng.Intn(3)), flowtable.PortID(4+rng.Intn(3))))
	case 2: // rewrite + output
		acts = append(acts,
			flowtable.SetField(header.IPTos, uint64(rng.Intn(64))),
			flowtable.Output(flowtable.PortID(1+rng.Intn(4))))
	case 3: // multicast
		acts = append(acts,
			flowtable.Output(flowtable.PortID(1+rng.Intn(3))),
			flowtable.Output(flowtable.PortID(4+rng.Intn(3))))
	default: // unicast
		acts = append(acts, flowtable.Output(flowtable.PortID(1+rng.Intn(6))))
	}
	return &flowtable.Rule{ID: id, Priority: 1 + rng.Intn(50), Match: m, Actions: acts}
}

// TestRandomTablesProbeSoundness is the core property test: on random
// tables, every successfully generated probe must pass independent
// semantic validation (hit the rule, satisfy collect, have distinguishable
// outcomes) — ValidateModel enforces this inside Generate, and we
// additionally re-derive the absent outcome by simulating a table without
// the rule.
func TestRandomTablesProbeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(208867))
	found, unmon := 0, 0
	for iter := 0; iter < 60; iter++ {
		tb := flowtable.New()
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			_ = tb.Insert(randomRule(rng, uint64(i))) // skip overlap-at-equal-priority rejects
		}
		for _, r := range tb.Rules() {
			p, err := gen().Generate(tb, r)
			if errors.Is(err, ErrUnmonitorable) {
				unmon++
				continue
			}
			if err != nil {
				t.Fatalf("iter %d rule %v: %v", iter, r, err)
			}
			found++
			// Re-derive absence behaviour from a table without r.
			without := flowtable.New()
			without.Miss = tb.Miss
			for _, o := range tb.Rules() {
				if o.ID != r.ID {
					if err := without.Insert(o.Clone()); err != nil {
						t.Fatal(err)
					}
				}
			}
			hit := without.Lookup(p.Header)
			if hit == nil {
				if !p.Absent.Drop && len(p.Absent.Emissions) != 0 {
					t.Fatalf("absent mismatch: miss but %+v", p.Absent)
				}
			} else if p.Absent.Rule == nil || hit.ID != p.Absent.Rule.ID {
				t.Fatalf("absent rule mismatch: sim=%v probe=%v", hit, p.Absent.Rule)
			}
		}
	}
	if found == 0 {
		t.Fatal("property test generated no probes at all")
	}
	t.Logf("probes found=%d unmonitorable=%d", found, unmon)
}

// TestOverlapFilterAblationEquivalence: disabling the §5.4 filter must not
// change monitorability.
func TestOverlapFilterAblationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	withF := NewGenerator(Config{ValidateModel: true})
	withoutF := NewGenerator(Config{ValidateModel: true, SkipOverlapFilter: true})
	for iter := 0; iter < 20; iter++ {
		tb := flowtable.New()
		for i := 0; i < 8; i++ {
			_ = tb.Insert(randomRule(rng, uint64(i)))
		}
		for _, r := range tb.Rules() {
			_, err1 := withF.Generate(tb, r)
			_, err2 := withoutF.Generate(tb, r)
			if errors.Is(err1, ErrUnmonitorable) != errors.Is(err2, ErrUnmonitorable) {
				t.Fatalf("filter changes monitorability for %v: %v vs %v", r, err1, err2)
			}
		}
	}
}

func BenchmarkGenerateSmallTable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tb := flowtable.New()
	for i := 0; i < 50; i++ {
		_ = tb.Insert(randomRule(rng, uint64(i)))
	}
	rules := tb.Rules()
	g := NewGenerator(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Generate(tb, rules[i%len(rules)])
	}
}
