package monocle

// The JSON form of a flow rule: RuleSpec and its action specs, as rule
// operations, the store's expected-table snapshots, session-trace
// annotations and probegen input carry them, and both directions of the
// format — RuleSpec.Rule parses and validates one, ruleSpec renders an
// installed rule back, so a snapshot round-trips bit-identically.

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// RuleSpec is the JSON form of one rule in rule operations.
type RuleSpec struct {
	ID       uint64 `json:"id"`
	Priority int    `json:"priority"`
	// Match maps OpenFlow 1.0 field names (dl_type, nw_src, ...) to
	// values: decimal or 0x-hex integers, dotted quads, value/prefixlen
	// prefixes (nw_src/nw_dst style) and value&mask ternaries. A value or
	// mask wider than its field is an error.
	Match   map[string]string `json:"match,omitempty"`
	Actions []ActionSpec      `json:"actions,omitempty"`
}

// ActionSpec is the JSON form of one rule action: exactly one of Output,
// ECMP, or Set is used. An empty Actions list on a RuleSpec drops.
type ActionSpec struct {
	Output uint16        `json:"output,omitempty"`
	ECMP   []uint16      `json:"ecmp,omitempty"`
	Set    *SetFieldSpec `json:"set,omitempty"`
}

// SetFieldSpec is the JSON form of a set-field rewrite action.
type SetFieldSpec struct {
	Field string `json:"field"`
	Value uint64 `json:"value"`
}

// Rule builds and validates the flow rule a RuleSpec describes.
func (rs *RuleSpec) Rule() (*Rule, error) {
	m := MatchAll()
	for name, val := range rs.Match {
		f, ok := header.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("monocle: unknown match field %q", name)
		}
		t, err := parseTernary(f, val)
		if err != nil {
			return nil, err
		}
		m = m.With(f, t)
	}
	actions, err := actionList(rs.Actions)
	if err != nil {
		return nil, err
	}
	r := &Rule{ID: rs.ID, Priority: rs.Priority, Match: m, Actions: actions}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// actionList builds a rule action list from specs.
func actionList(specs []ActionSpec) ([]Action, error) {
	var out []Action
	for _, a := range specs {
		switch {
		case a.Set != nil:
			f, ok := header.FieldByName(a.Set.Field)
			if !ok {
				return nil, fmt.Errorf("monocle: unknown set field %q", a.Set.Field)
			}
			out = append(out, SetField(f, a.Set.Value))
		case len(a.ECMP) > 0:
			ports := make([]PortID, len(a.ECMP))
			for i, p := range a.ECMP {
				ports[i] = PortID(p)
			}
			out = append(out, ECMP(ports...))
		case a.Output != 0:
			out = append(out, Output(PortID(a.Output)))
		default:
			return nil, fmt.Errorf("monocle: action needs output, ecmp, or set")
		}
	}
	return out, nil
}

// cloneActions copies an action list so the expected and actual tables
// never share Action slices.
func cloneActions(actions []Action) []Action {
	out := make([]Action, len(actions))
	copy(out, actions)
	for i := range out {
		if len(out[i].Ports) > 0 {
			out[i].Ports = append([]PortID(nil), out[i].Ports...)
		}
	}
	return out
}

// parseTernary parses one match value: "5", "0x800", "10.0.0.0",
// "10.0.0.0/8", "value/prefixlen", or "value&mask" (an arbitrary ternary
// mask — the persisted form of matches that are neither exact nor
// prefix). Values and masks follow header.ParseValue: wider than the
// field is an error, never truncated.
func parseTernary(f FieldID, s string) (Ternary, error) {
	if valPart, maskPart, hasMask := strings.Cut(s, "&"); hasMask {
		v, err := header.ParseValue(f, valPart)
		if err != nil {
			return Ternary{}, fmt.Errorf("monocle: field %s: %w", f, err)
		}
		m, err := header.ParseValue(f, maskPart)
		if err != nil {
			return Ternary{}, fmt.Errorf("monocle: field %s: bad mask: %w", f, err)
		}
		return Ternary{Value: v & m, Mask: m}, nil
	}
	valPart, plenPart, hasPlen := strings.Cut(s, "/")
	v, err := header.ParseValue(f, valPart)
	if err != nil {
		return Ternary{}, fmt.Errorf("monocle: field %s: %w", f, err)
	}
	if !hasPlen {
		return Exact(f, v), nil
	}
	plen, err := strconv.Atoi(plenPart)
	if err != nil || plen < 0 || plen > FieldWidth(f) {
		return Ternary{}, fmt.Errorf("monocle: field %s: bad prefix length %q", f, plenPart)
	}
	return Prefix(f, v, plen), nil
}

// ruleSpecs converts installed rules back to their JSON wire form — the
// inverse of RuleSpec.Rule — so expected-table snapshots round-trip
// through the store bit-identically.
func ruleSpecs(rules []*Rule) []RuleSpec {
	out := make([]RuleSpec, 0, len(rules))
	for _, r := range rules {
		out = append(out, ruleSpec(r))
	}
	return out
}

// ruleSpec converts one rule to its JSON wire form.
func ruleSpec(r *Rule) RuleSpec {
	rs := RuleSpec{ID: r.ID, Priority: r.Priority}
	for f := FieldID(0); f < NumFields; f++ {
		t := r.Match[f]
		if t.Mask == 0 {
			continue // wildcard
		}
		if rs.Match == nil {
			rs.Match = make(map[string]string)
		}
		rs.Match[f.String()] = ternaryString(f, t)
	}
	for _, a := range r.Actions {
		rs.Actions = append(rs.Actions, actionSpec(a))
	}
	return rs
}

// ternaryString renders one match cell in the form parseTernary accepts:
// a bare value for exact matches, value/prefixlen for contiguous prefix
// masks, and value&mask for arbitrary ternary masks.
func ternaryString(f FieldID, t Ternary) string {
	full := header.WidthMask(f)
	if t.Mask == full {
		return strconv.FormatUint(t.Value, 10)
	}
	ones := bits.OnesCount64(t.Mask)
	if t.Mask == full&^(full>>uint(ones)) {
		return fmt.Sprintf("%d/%d", t.Value, ones)
	}
	return fmt.Sprintf("0x%x&0x%x", t.Value, t.Mask)
}

// actionSpec converts one action to its JSON wire form.
func actionSpec(a Action) ActionSpec {
	switch a.Kind {
	case flowtable.ActionOutput:
		return ActionSpec{Output: uint16(a.Port)}
	case flowtable.ActionGroupECMP:
		ports := make([]uint16, len(a.Ports))
		for i, p := range a.Ports {
			ports[i] = uint16(p)
		}
		return ActionSpec{ECMP: ports}
	default: // ActionSetField
		return ActionSpec{Set: &SetFieldSpec{Field: a.Field.String(), Value: a.Value}}
	}
}
