package monocle

// Strategy 2 of §6: instead of one reserved header field whose probes all
// return to the controller from every neighbour, two fields H1/H2 are
// reserved. A probe carries H1 = id of the probed switch and H2 = id of
// the intended downstream switch; each switch pre-installs
//
//	catch:     match(H2 = S_i)            → controller  (highest priority)
//	filter_j:  match(H1 = S_j), j ≠ S_i   → drop        (just below)
//
// so the probe reaches the controller only via the desired downstream
// switch and is silently filtered at every other neighbour, trading extra
// reserved values (identifiers must differ between any two switches with
// a common neighbour — the square-graph coloring) for control-channel
// load. The Monitor's steady/dynamic machinery is strategy-agnostic: the
// strategy only changes the catching rules and the Collect constraint.

import (
	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/probe"
)

// Strategy2Fields names the two reserved fields. The defaults pair the
// VLAN id (H1, probed switch) with the VLAN PCP (H2, downstream switch),
// which keeps both inside the 802.1Q tag; any two rewritable-free fields
// work.
type Strategy2Fields struct {
	H1 header.FieldID
	H2 header.FieldID
}

// DefaultStrategy2Fields returns the VLAN-based pairing.
func DefaultStrategy2Fields() Strategy2Fields {
	return Strategy2Fields{H1: header.VlanID, H2: header.VlanPCP}
}

// CatchRulesStrategy2 returns the rules switch `self` must pre-install
// under strategy 2 for the given reserved identifier sets (values of H1
// and H2 respectively).
func CatchRulesStrategy2(self uint32, fields Strategy2Fields, reservedH1 []uint32) []*flowtable.Rule {
	id := uint64(0xC2000000) | uint64(self)<<16
	out := []*flowtable.Rule{{
		ID:       id,
		Priority: catchPriority,
		Match:    flowtable.MatchAll().WithExact(fields.H2, uint64(self)),
		Actions:  []flowtable.Action{flowtable.Output(flowtable.PortController)},
	}}
	id++
	for _, v := range reservedH1 {
		if v == self {
			continue
		}
		out = append(out, &flowtable.Rule{
			ID:       id,
			Priority: catchPriority - 1,
			Match:    flowtable.MatchAll().WithExact(fields.H1, uint64(v)),
			Actions:  nil, // drop foreign probes that strayed here
		})
		id++
	}
	return out
}

// Strategy2Collect builds the Collect constraint for probing a rule whose
// expected output reaches downstream switch `next`: the probe must carry
// H1 = probed switch, H2 = next.
func Strategy2Collect(fields Strategy2Fields, probed, next uint32) flowtable.Match {
	return flowtable.MatchAll().
		WithExact(fields.H1, uint64(probed)).
		WithExact(fields.H2, uint64(next))
}

// GenerateStrategy2 produces a probe for `rule` under the two-field
// scheme, targeting the downstream switch reachable through the rule's
// first forwarding port (per portPeer). It runs the Monitor's generator
// under the per-target Collect constraint, which reserves both fields;
// steady/dynamic monitoring can feed the returned probe through the
// normal machinery.
func (m *Monitor) GenerateStrategy2(table *flowtable.Table, rule *flowtable.Rule, fields Strategy2Fields) (*probe.Probe, error) {
	ports := rule.ForwardingSet()
	var next uint32 = HostPeer
	for _, p := range ports {
		if peer, ok := m.Cfg.PortPeer[p]; ok && peer != HostPeer {
			next = peer
			break
		}
	}
	if next == HostPeer {
		return nil, probe.ErrUnmonitorable // egress rule (§3.5)
	}
	return m.gen.Collecting(Strategy2Collect(fields, m.Cfg.SwitchID, next)).Generate(table, rule)
}
