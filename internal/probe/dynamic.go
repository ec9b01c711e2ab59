package probe

// Dynamic-monitoring probe construction (§4.1): probes for rule additions,
// deletions, and modifications.
//
// Additions and deletions need no construction of their own: both call
// Generate on the expected table that holds the rule. An addition is
// confirmed once the data plane produces the probe's Present outcome; a
// deletion, with the interpretation swapped, once it produces the Absent
// outcome (the underlying lower-priority rule's actions).
//
// Modifications keep match and priority, so the probe always hits either
// the old or the new version. Per the paper we clone the expected table,
// drop every lower-priority rule, demote the old version just below the
// new one, and run standard generation for the new version: Present = new
// actions, Absent = old actions.

import (
	"fmt"
	"math"

	"monocle/internal/flowtable"
)

// GenerateModification creates a probe distinguishing the new version of a
// rule from the old one. oldRule must be in table; newActions are the
// modified action list (match and priority unchanged, per OpenFlow modify
// semantics). In the returned probe, Present corresponds to the new
// version being active and Absent to the old version.
func (g *Generator) GenerateModification(table *flowtable.Table, oldRule *flowtable.Rule, newActions []flowtable.Action) (*Probe, error) {
	if oldRule.Priority == math.MinInt {
		return nil, fmt.Errorf("probe: cannot demote rule %d at minimum priority", oldRule.ID)
	}
	alt := flowtable.New()
	alt.Miss = table.Miss
	for _, r := range table.Rules() {
		if r.Priority < oldRule.Priority {
			continue // remove all lower-priority rules (§4.1)
		}
		cp := r.Clone()
		if r.ID == oldRule.ID {
			cp.Priority = oldRule.Priority - 1 // demote the old version
		}
		if err := alt.Insert(cp); err != nil {
			return nil, fmt.Errorf("probe: building altered table: %w", err)
		}
	}
	newVersion := &flowtable.Rule{
		ID:       oldRule.ID ^ (1 << 63), // synthetic id distinct from the old copy
		Priority: oldRule.Priority,
		Match:    oldRule.Match,
		Actions:  newActions,
	}
	if err := alt.Insert(newVersion); err != nil {
		return nil, fmt.Errorf("probe: inserting new version: %w", err)
	}
	p, err := g.Generate(alt, newVersion)
	if err != nil {
		return nil, err
	}
	p.RuleID = oldRule.ID
	return p, nil
}
