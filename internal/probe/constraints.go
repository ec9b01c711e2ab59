// Package probe implements Monocle's primary contribution: generating data
// plane probe packets for a monitored rule by formulating the switch
// forwarding logic as a Boolean satisfiability problem (§3, §5).
//
// A probe for rule R_probed must
//
//	Hit:         match R_probed and no higher-priority rule,
//	Distinguish: behave observably differently depending on whether
//	             R_probed is installed, whatever lower-priority rule
//	             would process it otherwise, and
//	Collect:     match the downstream probe-catching rule.
//
// Constraints are built over the abstract header bits (package header),
// encoded to CNF with the if-then-else chain construction (package cnf) and
// solved with the bundled SAT solver (package sat). The SAT model is then
// translated into a valid abstract packet (limited field domains, the
// spare-value substitution lemma, conditionally-excluded field
// elimination — §5.2).
package probe

import (
	"monocle/internal/cnf"
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// matchFormula returns the Table-3 encoding of Matches(P, m): a
// conjunction of one literal per constrained header bit. The wildcard
// match yields the constant true.
func matchFormula(m flowtable.Match) *cnf.Formula {
	var lits []*cnf.Formula
	for f := header.FieldID(0); f < header.NumFields; f++ {
		t := m[f]
		if t.IsWildcard() {
			continue
		}
		lits = append(lits, ternaryLits(f, t)...)
	}
	return cnf.And(lits...)
}

// ternaryLits returns the literal formulas matching one field's ternary:
// the single-field slice of the Table-3 encoding.
func ternaryLits(f header.FieldID, t header.Ternary) []*cnf.Formula {
	w := header.Width(f)
	var lits []*cnf.Formula
	for b := 0; b < w; b++ {
		maskBit := t.Mask >> (w - 1 - b) & 1
		if maskBit == 0 {
			continue
		}
		v := header.BitVar(f, b)
		if t.Value>>(w-1-b)&1 == 1 {
			lits = append(lits, cnf.Lit(v))
		} else {
			lits = append(lits, cnf.Lit(-v))
		}
	}
	return lits
}

// fieldEquals returns the formula pinning field f to value v.
func fieldEquals(f header.FieldID, v uint64) *cnf.Formula {
	w := header.Width(f)
	lits := make([]*cnf.Formula, 0, w)
	for b := 0; b < w; b++ {
		bv := header.BitVar(f, b)
		if v>>(w-1-b)&1 == 1 {
			lits = append(lits, cnf.Lit(bv))
		} else {
			lits = append(lits, cnf.Lit(-bv))
		}
	}
	return cnf.And(lits...)
}

// wireSafe is the constraint that keeps a probe representable on the
// wire: for ICMP the abstract tp_src/tp_dst carry the 8-bit ICMP type and
// code (OpenFlow 1.0), so a value above 255 would be crafted truncated and
// the packet would no longer match the rule it probes. Asserted, it is one
// clause per high bit (nw_proto ≠ ICMP ∨ bit = 0) and no fresh variable.
// Formulas are immutable, so every encoder shares this one.
var wireSafe = func() *cnf.Formula {
	notICMP := cnf.Not(fieldEquals(header.IPProto, header.ProtoICMP))
	var cs []*cnf.Formula
	for _, f := range []header.FieldID{header.TPSrc, header.TPDst} {
		for b := 0; b < header.Width(f)-8; b++ {
			cs = append(cs, cnf.Or(notICMP, cnf.Lit(-header.BitVar(f, b))))
		}
	}
	return cnf.And(cs...)
}()

// fwdView caches a rule's forwarding analysis (sorted forwarding set and
// ECMP-ness) so the O(rules²) Distinguish term construction of a sweep
// does not rebuild it per rule pair. All port iteration runs over the
// sorted slice, so every derived formula has deterministic term order.
type fwdView struct {
	ports []flowtable.PortID // sorted forwarding set
	ecmp  bool
}

func newFwdView(r *flowtable.Rule) *fwdView {
	return &fwdView{ports: r.ForwardingSet(), ecmp: r.IsECMP()}
}

// has reports membership in the sorted forwarding set (sets here have at
// most a handful of ports; linear scan beats a map).
func (v *fwdView) has(p flowtable.PortID) bool {
	for _, q := range v.ports {
		if q == p {
			return true
		}
		if q > p {
			return false
		}
	}
	return false
}

func portsEqual(a, b *fwdView) bool {
	if len(a.ports) != len(b.ports) {
		return false
	}
	for i := range a.ports {
		if a.ports[i] != b.ports[i] {
			return false
		}
	}
	return true
}

// countShared returns |a ∩ b| over the sorted port slices.
func countShared(a, b *fwdView) int {
	n, i, j := 0, 0, 0
	for i < len(a.ports) && j < len(b.ports) {
		switch {
		case a.ports[i] == b.ports[j]:
			n++
			i++
			j++
		case a.ports[i] < b.ports[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// coveredBy reports a ⊆ b.
func coveredBy(a, b *fwdView) bool {
	return countShared(a, b) == len(a.ports)
}

// diffPorts implements the §3.4 DiffPorts case analysis. Drop and unicast
// rules are multicast rules with zero / one element in their forwarding
// set; a single-port ECMP group is likewise deterministic.
func diffPorts(a, b *fwdView, counting bool) bool {
	switch {
	case !a.ecmp && !b.ecmp: // both multicast-like (incl. unicast, drop)
		return !portsEqual(a, b)
	case a.ecmp && b.ecmp: // both ECMP
		return countShared(a, b) == 0
	case !a.ecmp: // a multicast, b ECMP
		if !coveredBy(a, b) {
			return true
		}
		// Counting exception: an ECMP rule always emits exactly one
		// probe; a multicast rule emits |F1| ≠ 1 of them.
		return counting && len(a.ports) != 1
	default: // a ECMP, b multicast
		if !coveredBy(b, a) {
			return true
		}
		return counting && len(b.ports) != 1
	}
}

// bitDiffOnPort returns the Table-4 formula: true iff rules r1 and r2
// rewrite at least one bit of the probe differently as observed on port p.
func bitDiffOnPort(r1, r2 *flowtable.Rule, p flowtable.PortID) *cnf.Formula {
	w1, ok1 := r1.RewriteOnPort(p)
	w2, ok2 := r2.RewriteOnPort(p)
	if !ok1 || !ok2 {
		// One of the rules never emits on p; location alone
		// distinguishes, which DiffPorts already accounts for.
		return cnf.False()
	}
	var terms []*cnf.Formula
	for f := header.FieldID(0); f < header.NumFields; f++ {
		if !w1.Set[f] && !w2.Set[f] {
			continue // both pass the whole field through
		}
		width := header.Width(f)
		for b := 0; b < width; b++ {
			f1, v1 := w1.BitRewrite(f, b)
			f2, v2 := w2.BitRewrite(f, b)
			switch {
			case f1 && f2:
				if v1 != v2 {
					return cnf.True() // bit always differs
				}
			case f1 != f2:
				// One side fixes the bit, the other passes P[i]
				// through: they differ iff P[i] disagrees with the
				// fixed value.
				fixedVal := v1
				if f2 {
					fixedVal = v2
				}
				bv := header.BitVar(f, b)
				if fixedVal {
					terms = append(terms, cnf.Lit(-bv))
				} else {
					terms = append(terms, cnf.Lit(bv))
				}
			}
		}
	}
	return cnf.Or(terms...)
}

// diffRewrite implements the §3.4 DiffRewrite case analysis over the ports
// in F1 ∩ F2, in sorted port order (deterministic term order). Drop rules
// never output, so their rewrites are meaningless and DiffRewrite is
// defined false (footnote 2).
func diffRewrite(r1, r2 *flowtable.Rule, v1, v2 *fwdView) *cnf.Formula {
	if len(v1.ports) == 0 || len(v2.ports) == 0 {
		return cnf.False() // a drop rule is involved
	}
	var terms []*cnf.Formula
	for _, p := range v1.ports {
		if v2.has(p) {
			terms = append(terms, bitDiffOnPort(r1, r2, p))
		}
	}
	if len(terms) == 0 {
		return cnf.False()
	}
	if !v1.ecmp && !v2.ecmp {
		// Both deterministic: a single differing port suffices.
		return cnf.Or(terms...)
	}
	// ECMP involved: the difference must be observable no matter which
	// common port the ECMP rule chooses.
	return cnf.And(terms...)
}

// diffOutcome is DiffOutcome(P, r1, r2) := DiffPorts ∨ DiffRewrite.
// DiffPorts depends only on the rules, so it folds to a constant before
// SAT encoding (Appendix B note).
func diffOutcome(r1, r2 *flowtable.Rule, counting bool) *cnf.Formula {
	return diffOutcomeView(r1, r2, newFwdView(r1), newFwdView(r2), counting)
}

// diffOutcomeView is diffOutcome with the rules' forwarding views supplied
// by the caller (sessions cache one per table rule).
func diffOutcomeView(r1, r2 *flowtable.Rule, v1, v2 *fwdView, counting bool) *cnf.Formula {
	if diffPorts(v1, v2, counting) {
		return cnf.True()
	}
	return diffRewrite(r1, r2, v1, v2)
}
