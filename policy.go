package monocle

// Monitoring-policy surface. A Policy is the parsed form of the small
// declarative policy language (internal/policy): named groups select
// switches by tag or ID and attach monitoring directives — sweep cadence,
// confirmation deadline, sampling, Differ thresholds, alert filters. The
// Service compiles the active policy against the live fleet into
// deterministic per-switch ProbePlans each round; see the README's
// "Monitoring policies" section for the grammar.

import (
	"os"
	"time"

	"monocle/internal/policy"
)

// PolicyError is a policy parse or validation error. Line and Col are the
// 1-based source position of the offending token; Error() renders
// "line:col: message". The HTTP surface returns it as a 422 body.
type PolicyError = policy.Error

// Policy is a parsed monitoring policy. Policies are immutable once
// parsed; install one with WithPolicy, Service.SetPolicy, or PUT /policy.
type Policy struct {
	src string
	ast *policy.Policy
}

// ParsePolicy parses a policy text. A non-nil error is always a
// *PolicyError carrying the source position.
func ParsePolicy(src string) (*Policy, error) {
	ast, err := policy.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Policy{src: src, ast: ast}, nil
}

// ParsePolicyFile reads and parses a policy file.
func ParsePolicyFile(path string) (*Policy, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePolicy(string(b))
}

// Source returns the policy text as it was parsed.
func (p *Policy) Source() string { return p.src }

// String renders the policy in canonical form: groups in declaration
// order, directives in a fixed order, normalized values. Parsing the
// canonical form reproduces it exactly.
func (p *Policy) String() string { return p.ast.String() }

// GroupNames returns the declared group names in declaration order,
// followed by the implicit "default" group that catches unselected
// switches.
func (p *Policy) GroupNames() []string { return p.ast.GroupNames() }

// PolicyAssignment is one switch's resolved policy: the winning group
// (first selector match in declaration order; "default" when none) and
// the merged directives. Zero values mean the service's own settings
// apply.
type PolicyAssignment struct {
	// Group is the winning group's name.
	Group string `json:"group"`
	// Every is the group's sweep cadence (0 = service interval).
	Every time.Duration `json:"every,omitempty"`
	// Confirm is the update-confirmation deadline (0 = service default).
	Confirm time.Duration `json:"confirm,omitempty"`
	// SamplePercent is the per-round rule sampling rate (0 = sweep all).
	SamplePercent float64 `json:"sample_percent,omitempty"`
	// Seed is the effective sampling seed (explicit or derived from the
	// group name); meaningful only when SamplePercent is set.
	Seed uint64 `json:"seed,omitempty"`
	// Debounce, StallThreshold, FlapWindow, FlapFlips override the
	// Differ's thresholds for this switch (0 = service default).
	Debounce       int `json:"debounce,omitempty"`
	StallThreshold int `json:"stall_threshold,omitempty"`
	FlapWindow     int `json:"flap_window,omitempty"`
	FlapFlips      int `json:"flap_flips,omitempty"`
	// Match is the canonical rule predicate limiting what the group
	// monitors ("" = every rule).
	Match string `json:"match,omitempty"`
	// Alert describes the group's alert filter: "" (inherit/all), "all",
	// "none", or "only <predicate>".
	Alert string `json:"alert,omitempty"`
}

// Assignment resolves one switch against the policy.
func (p *Policy) Assignment(id uint32, tags []string) PolicyAssignment {
	asn := p.ast.Assign(id, tags)
	out := PolicyAssignment{
		Group:          asn.Group,
		Every:          asn.Dir.Every,
		Confirm:        asn.Dir.Confirm,
		SamplePercent:  float64(asn.Dir.SampleBP) / 100,
		Debounce:       asn.Dir.Debounce,
		StallThreshold: asn.Dir.Stall,
		FlapWindow:     asn.Dir.FlapWin,
		FlapFlips:      asn.Dir.FlapFlip,
		Match:          policy.PredString(asn.Dir.Match),
	}
	if asn.Dir.SampleBP > 0 {
		out.Seed = asn.Seed
	}
	if a := asn.Dir.Alert; a != nil {
		switch {
		case a.None:
			out.Alert = "none"
		case a.Only != nil:
			out.Alert = "only " + policy.PredString(a.Only)
		default:
			out.Alert = "all"
		}
	}
	return out
}

// ProbePlan is one switch's compiled plan for one sweep round: exactly
// which rules the round probes, under which cadence and thresholds. Plans
// are a pure function of (policy, switch, installed rules, round), so
// they are byte-identical across worker budgets, sweep interleavings, and
// process restarts.
type ProbePlan struct {
	// Switch is the member switch the plan is for.
	Switch uint32 `json:"switch"`
	// Group is the policy group the switch resolved to.
	Group string `json:"group"`
	// Round is the group's sweep-round index the plan was compiled for.
	Round uint64 `json:"round"`
	// Assignment echoes the resolved directives.
	Assignment PolicyAssignment `json:"assignment"`
	// Rules are the rule ids this round probes (the group's match
	// predicate intersected with the round's sample), in table priority
	// order.
	Rules []uint64 `json:"rules"`
	// Unsampled are matched rules the round's sample left out; they stay
	// tracked with frozen alert state.
	Unsampled []uint64 `json:"unsampled,omitempty"`
	// Matched counts installed rules matching the group's predicate;
	// Total counts all installed rules.
	Matched int `json:"matched"`
	// Total counts the switch's installed rules.
	Total int `json:"total"`
}

// Plan compiles the policy into one switch's probe plan for a round,
// given the switch's installed rules (in table priority order, as
// Verifier.Rules returns them).
func (p *Policy) Plan(id uint32, tags []string, rules []*Rule, round uint64) ProbePlan {
	asn := p.ast.Assign(id, tags)
	plan := ProbePlan{
		Switch:     id,
		Group:      asn.Group,
		Round:      round,
		Assignment: p.Assignment(id, tags),
		Rules:      []uint64{},
		Total:      len(rules),
	}
	for _, r := range rules {
		if asn.Dir.Match != nil && !asn.Dir.Match.Eval(r) {
			continue
		}
		plan.Matched++
		if policy.Sampled(asn.Seed, id, r.ID, round, asn.Dir.SampleBP) {
			plan.Rules = append(plan.Rules, r.ID)
		} else {
			plan.Unsampled = append(plan.Unsampled, r.ID)
		}
	}
	return plan
}

// groupOf returns the group name one switch resolves to. A nil policy
// is one implicit group, "".
func (p *Policy) groupOf(id uint32, tags []string) string {
	if p == nil {
		return ""
	}
	return p.ast.Assign(id, tags).Group
}

// everyOf returns a group's sweep cadence (0 = inherit), resolving the
// directive layering for any switch in the group. Cadence is a group
// property: every switch in a group resolves the same Every. The nil
// policy's implicit group inherits.
func (p *Policy) everyOf(group string) time.Duration {
	if p == nil {
		return 0
	}
	if p.ast.Default != nil && group == policy.DefaultGroup {
		return p.ast.Default.Every
	}
	for _, g := range p.ast.Groups {
		if g.Name == group {
			var base policy.Directives
			if p.ast.Default != nil {
				base = *p.ast.Default
			}
			if g.Dir.Every > 0 {
				return g.Dir.Every
			}
			return base.Every
		}
	}
	return 0
}

// overridesFor compiles one switch's Differ overrides from the policy,
// or nil when the assignment overrides nothing.
func (p *Policy) overridesFor(id uint32, tags []string) *DiffOverrides {
	asn := p.ast.Assign(id, tags)
	ov := &DiffOverrides{
		Debounce:    asn.Dir.Debounce,
		StallSweeps: asn.Dir.Stall,
		FlapWindow:  asn.Dir.FlapWin,
		FlapFlips:   asn.Dir.FlapFlip,
	}
	if a := asn.Dir.Alert; a != nil {
		switch {
		case a.None:
			ov.AlertFilter = func(uint64, *Rule) bool { return false }
		case a.Only != nil:
			pred := a.Only
			ov.AlertFilter = func(_ uint64, r *Rule) bool {
				return r != nil && pred.Eval(r)
			}
		}
	}
	if ov.Debounce == 0 && ov.StallSweeps == 0 && ov.FlapWindow == 0 && ov.AlertFilter == nil {
		return nil
	}
	return ov
}

// confirmOf returns one switch's confirmation deadline (0 = inherit).
func (p *Policy) confirmOf(id uint32, tags []string) time.Duration {
	return p.ast.Assign(id, tags).Dir.Confirm
}
