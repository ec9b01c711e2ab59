// Package policy implements the Monocle monitoring-policy language: a
// small declarative DSL that groups fleet switches by tag or ID and
// attaches per-group monitoring directives — sweep cadence, confirmation
// deadline, sampling rate, Differ thresholds, and alert filters. A policy
// text parses into a Policy AST (with positional errors), prints back in a
// canonical form (parse→print→parse is a fixed point, enforced by fuzz),
// and compiles against a live fleet into deterministic per-switch probe
// plans: which rules to sweep this round, at what cadence, with which
// alerting behavior. Sampling is a pure function of (seed, switch, rule,
// round), so plans are byte-identical regardless of worker budget.
package policy

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"monocle/internal/chaos"
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// Error is a policy parse or validation error carrying the 1-based source
// position of the offending token.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Policy is a parsed monitoring policy: an ordered list of named groups
// (first selector match wins) plus an optional default block whose
// directives apply to every group as a base layer and to switches no
// group selects.
type Policy struct {
	Groups  []Group
	Default *Directives // nil when the policy has no default block
}

// Group is one named policy block with a selector and directives.
type Group struct {
	Name   string
	Select Selector
	Dir    Directives
}

// Selector decides which switches a group covers. A switch matches when
// All is set, its ID appears in IDs, or any of its tags appears in Tags.
type Selector struct {
	All  bool
	IDs  []uint32
	Tags []string
}

// Matches reports whether the selector covers a switch with the given ID
// and tags.
func (s Selector) Matches(id uint32, tags []string) bool {
	if s.All {
		return true
	}
	for _, want := range s.IDs {
		if want == id {
			return true
		}
	}
	for _, want := range s.Tags {
		for _, have := range tags {
			if want == have {
				return true
			}
		}
	}
	return false
}

// Directives are the monitoring knobs a block may set. The zero value of
// each field means "unset — inherit from the layer below" (group inherits
// from the default block, which inherits from the service's own settings).
type Directives struct {
	Match    Pred          // rule predicate; nil = monitor every rule
	Every    time.Duration // sweep cadence; 0 = inherit
	Confirm  time.Duration // update-confirmation deadline; 0 = inherit
	SampleBP int           // sampling rate in basis points (10000 = 100%); 0 = unset
	Seed     uint64        // sampling seed; meaningful only when HasSeed
	HasSeed  bool
	Debounce int          // consecutive failing sweeps before alerting; 0 = inherit
	Stall    int          // missed sweeps before switch_stalled; 0 = inherit
	FlapWin  int          // verdict-flap detection window; 0 = inherit
	FlapFlip int          // flips within the window that trip flapping; 0 = inherit
	Alert    *AlertFilter // nil = inherit
}

// AlertFilter restricts which rule-level alerts a group emits. Exactly one
// of the three forms holds: All (pass everything, overriding an inherited
// filter), None (suppress all rule alerts), or Only (pass alerts only for
// rules matching the predicate).
type AlertFilter struct {
	All  bool
	None bool
	Only Pred
}

// merge layers over on top of base: every directive over sets wins.
func merge(base, over Directives) Directives {
	out := base
	if over.Match != nil {
		out.Match = over.Match
	}
	if over.Every > 0 {
		out.Every = over.Every
	}
	if over.Confirm > 0 {
		out.Confirm = over.Confirm
	}
	if over.SampleBP > 0 {
		out.SampleBP = over.SampleBP
		out.Seed = over.Seed
		out.HasSeed = over.HasSeed
	}
	if over.Debounce > 0 {
		out.Debounce = over.Debounce
	}
	if over.Stall > 0 {
		out.Stall = over.Stall
	}
	if over.FlapWin > 0 {
		out.FlapWin = over.FlapWin
		out.FlapFlip = over.FlapFlip
	}
	if over.Alert != nil {
		out.Alert = over.Alert
	}
	return out
}

// DefaultGroup is the implicit group name for switches no policy block
// selects. It is reserved: a policy block may not be named "default"
// (the `default { ... }` form declares the base layer instead).
const DefaultGroup = "default"

// Assignment is the resolved policy for one switch: the winning group and
// its fully merged directives. Zero-valued directives still mean "use the
// service default".
type Assignment struct {
	Group string
	Dir   Directives
	Seed  uint64 // effective sampling seed (explicit, or derived from group name)
}

// Assign resolves a switch against the policy: the first group whose
// selector matches wins; unmatched switches land in the "default" group
// with only the default block's directives.
func (p *Policy) Assign(id uint32, tags []string) Assignment {
	var base Directives
	if p.Default != nil {
		base = *p.Default
	}
	for _, g := range p.Groups {
		if g.Select.Matches(id, tags) {
			d := merge(base, g.Dir)
			return Assignment{Group: g.Name, Dir: d, Seed: seedFor(d, g.Name)}
		}
	}
	return Assignment{Group: DefaultGroup, Dir: base, Seed: seedFor(base, DefaultGroup)}
}

// GroupNames returns the declared group names in declaration order,
// followed by the implicit "default" group.
func (p *Policy) GroupNames() []string {
	names := make([]string, 0, len(p.Groups)+1)
	for _, g := range p.Groups {
		names = append(names, g.Name)
	}
	return append(names, DefaultGroup)
}

// seedFor returns the effective sampling seed: the explicit `seed N` if
// one was given, otherwise an FNV hash of the group name so distinct
// groups sample distinct subsets by default.
func seedFor(d Directives, group string) uint64 {
	if d.HasSeed {
		return d.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(group))
	return h.Sum64()
}

// Sampled reports whether rule rid of switch sw participates in sweep
// round `round` under the given seed and rate (basis points). It is a pure
// function of its arguments — no global state, no RNG stream — so the
// sampled subset for a round is identical regardless of worker budget,
// sweep order, or process restarts. Rates <= 0 or >= 10000 sample
// everything.
func Sampled(seed uint64, sw uint32, rid, round uint64, bp int) bool {
	if bp <= 0 || bp >= 10000 {
		return true
	}
	x := seed
	x ^= uint64(sw) * 0x9e3779b97f4a7c15
	x ^= rid * 0xc2b2ae3d27d4eb4f
	x ^= round * 0x165667b19e3779f9
	return chaos.New(x).Uint64()%10000 < uint64(bp)
}

// ---- predicates ----

// Pred is a rule predicate from a `match` or `alert only` clause.
type Pred interface {
	// Eval reports whether the rule satisfies the predicate. Field atoms
	// use ternary intersection: `nw_dst in 10.0.0.0/8` holds when the
	// rule's nw_dst match can produce an address in 10/8 (a wildcard
	// field intersects everything).
	Eval(r *flowtable.Rule) bool
	print(b *strings.Builder, prec int)
}

// Precedence levels for canonical printing: parens appear exactly where
// an operand's precedence is below its context's.
const (
	precOr = iota + 1
	precAnd
	precNot
	precAtom
)

// OrPred is the disjunction `X or Y`.
type OrPred struct{ X, Y Pred }

// AndPred is the conjunction `X and Y`.
type AndPred struct{ X, Y Pred }

// NotPred is the negation `not X`.
type NotPred struct{ X Pred }

func (p *OrPred) Eval(r *flowtable.Rule) bool  { return p.X.Eval(r) || p.Y.Eval(r) }
func (p *AndPred) Eval(r *flowtable.Rule) bool { return p.X.Eval(r) && p.Y.Eval(r) }
func (p *NotPred) Eval(r *flowtable.Rule) bool { return !p.X.Eval(r) }

func (p *OrPred) print(b *strings.Builder, prec int) {
	open := prec > precOr
	if open {
		b.WriteByte('(')
	}
	p.X.print(b, precOr)
	b.WriteString(" or ")
	p.Y.print(b, precOr)
	if open {
		b.WriteByte(')')
	}
}

func (p *AndPred) print(b *strings.Builder, prec int) {
	open := prec > precAnd
	if open {
		b.WriteByte('(')
	}
	p.X.print(b, precAnd)
	b.WriteString(" and ")
	p.Y.print(b, precAnd)
	if open {
		b.WriteByte(')')
	}
}

func (p *NotPred) print(b *strings.Builder, prec int) {
	b.WriteString("not ")
	p.X.print(b, precNot)
}

// FieldPred is a header-field atom: `nw_dst in 10.0.0.0/8` (Prefix) or
// `dl_type = 2048` (exact). Eval uses ternary intersection against the
// rule's match, so a rule wildcarding the field satisfies every atom on it.
type FieldPred struct {
	Field  header.FieldID
	Tern   header.Ternary
	Prefix bool // printed as addr/len rather than `= value`
	Plen   int  // prefix length when Prefix
}

func (p *FieldPred) Eval(r *flowtable.Rule) bool {
	t := r.Match[p.Field]
	return (t.Value^p.Tern.Value)&t.Mask&p.Tern.Mask == 0
}

func (p *FieldPred) print(b *strings.Builder, _ int) {
	b.WriteString(p.Field.String())
	if p.Prefix {
		b.WriteString(" in ")
		b.WriteString(formatFieldValue(p.Field, p.Tern.Value))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(p.Plen))
		return
	}
	b.WriteString(" = ")
	b.WriteString(formatFieldValue(p.Field, p.Tern.Value))
}

// IntSubject selects what an IntPred compares.
type IntSubject int

const (
	// SubjectPriority compares the rule's priority.
	SubjectPriority IntSubject = iota
	// SubjectID compares the rule's ID.
	SubjectID
)

// IntPred is a numeric atom: `priority >= 10` or `id = 7`.
type IntPred struct {
	Subject IntSubject
	Op      string // "=", "<", ">", "<=", ">="
	Value   uint64
}

func (p *IntPred) Eval(r *flowtable.Rule) bool {
	var have uint64
	switch p.Subject {
	case SubjectPriority:
		if r.Priority < 0 {
			// Negative priorities sort below every literal the grammar
			// can express.
			return p.Op == "<" || p.Op == "<="
		}
		have = uint64(r.Priority)
	case SubjectID:
		have = r.ID
	}
	switch p.Op {
	case "=":
		return have == p.Value
	case "<":
		return have < p.Value
	case ">":
		return have > p.Value
	case "<=":
		return have <= p.Value
	case ">=":
		return have >= p.Value
	}
	return false
}

func (p *IntPred) print(b *strings.Builder, _ int) {
	if p.Subject == SubjectPriority {
		b.WriteString("priority ")
	} else {
		b.WriteString("id ")
	}
	b.WriteString(p.Op)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(p.Value, 10))
}

// formatFieldValue renders a field value canonically: dotted quad for the
// 32-bit IP fields, decimal otherwise.
func formatFieldValue(f header.FieldID, v uint64) string {
	if f == header.IPSrc || f == header.IPDst {
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return strconv.FormatUint(v, 10)
}

// ---- canonical printing ----

// String renders the policy in canonical form: groups in declaration
// order, directives in a fixed order, values normalized (decimal numbers,
// dotted-quad IPs, time.Duration spellings, quoted tags). Parsing the
// canonical form yields a policy that prints identically.
func (p *Policy) String() string {
	var b strings.Builder
	for i, g := range p.Groups {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("policy ")
		b.WriteString(g.Name)
		b.WriteString(" {\n")
		printSelector(&b, g.Select)
		printDirectives(&b, g.Dir)
		b.WriteString("}\n")
	}
	if p.Default != nil {
		if len(p.Groups) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("default {\n")
		printDirectives(&b, *p.Default)
		b.WriteString("}\n")
	}
	return b.String()
}

func printSelector(b *strings.Builder, s Selector) {
	if s.All {
		b.WriteString("\tselect all\n")
		return
	}
	if len(s.IDs) > 0 {
		b.WriteString("\tselect switch ")
		for i, id := range s.IDs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatUint(uint64(id), 10))
		}
		b.WriteByte('\n')
	}
	if len(s.Tags) > 0 {
		b.WriteString("\tselect tag ")
		for i, t := range s.Tags {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Quote(t))
		}
		b.WriteByte('\n')
	}
}

func printDirectives(b *strings.Builder, d Directives) {
	if d.Match != nil {
		b.WriteString("\tmatch ")
		d.Match.print(b, precOr)
		b.WriteByte('\n')
	}
	if d.Every > 0 {
		fmt.Fprintf(b, "\tevery %s\n", d.Every)
	}
	if d.Confirm > 0 {
		fmt.Fprintf(b, "\tconfirm within %s\n", d.Confirm)
	}
	if d.SampleBP > 0 {
		fmt.Fprintf(b, "\tsample %s%%", formatBasisPoints(d.SampleBP))
		if d.HasSeed {
			fmt.Fprintf(b, " seed %d", d.Seed)
		}
		b.WriteByte('\n')
	}
	if d.Debounce > 0 {
		fmt.Fprintf(b, "\tdebounce %d\n", d.Debounce)
	}
	if d.Stall > 0 {
		fmt.Fprintf(b, "\tstall %d\n", d.Stall)
	}
	if d.FlapWin > 0 {
		fmt.Fprintf(b, "\tflap %d %d\n", d.FlapWin, d.FlapFlip)
	}
	if d.Alert != nil {
		switch {
		case d.Alert.None:
			b.WriteString("\talert none\n")
		case d.Alert.Only != nil:
			b.WriteString("\talert only ")
			d.Alert.Only.print(b, precOr)
			b.WriteByte('\n')
		default:
			b.WriteString("\talert all\n")
		}
	}
}

// formatBasisPoints renders a rate in basis points as a percentage with
// up to two decimals, trailing zeros trimmed: 1000 → "10", 1250 → "12.5",
// 33 → "0.33".
func formatBasisPoints(bp int) string {
	s := strconv.FormatFloat(float64(bp)/100, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// PredString renders a predicate in the canonical grammar spelling.
func PredString(p Pred) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	p.print(&b, precOr)
	return b.String()
}

// FieldNames returns the header-field names the grammar accepts, sorted.
func FieldNames() []string {
	names := make([]string, 0, int(header.NumFields))
	for f := header.FieldID(0); f < header.NumFields; f++ {
		names = append(names, f.String())
	}
	sort.Strings(names)
	return names
}
