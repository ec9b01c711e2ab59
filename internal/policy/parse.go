package policy

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"monocle/internal/header"
)

// Parse parses a policy text. The error, when non-nil, is always a *Error
// carrying the 1-based line and column of the offending token.
//
// Grammar (see the README for the commented version):
//
//	policyfile = { block } .
//	block      = "policy" NAME "{" { stmt } "}" | "default" "{" { directive } "}" .
//	stmt       = select | directive .
//	select     = "select" ( "all" | "switch" num {"," num} | "tag" tag {"," tag} ) .
//	directive  = "match" pred
//	           | "every" DURATION
//	           | "confirm" "within" DURATION
//	           | "sample" PERCENT [ "seed" num ]
//	           | "debounce" num
//	           | "stall" num
//	           | "flap" num num
//	           | "alert" ( "all" | "none" | "only" pred ) .
//	pred       = term { "or" term } .
//	term       = factor { "and" factor } .
//	factor     = "not" factor | "(" pred ")" | atom .
//	atom       = FIELD "in" CIDR | FIELD "=" value
//	           | "priority" relop num | "id" relop num .
//	relop      = "=" | "<" | ">" | "<=" | ">=" .
func Parse(src string) (*Policy, error) {
	pol, err := parse(src)
	if err != nil {
		return nil, err
	}
	return pol, nil
}

func parse(src string) (*Policy, *Error) {
	toks, lerr := lex(src)
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{toks: toks}
	pol := &Policy{}
	names := map[string]bool{}
	for p.peek().kind != tokEOF {
		t := p.next()
		if t.kind != tokWord || (t.text != "policy" && t.text != "default") {
			return nil, errAt(t, fmt.Sprintf("expected 'policy' or 'default', got %s", t))
		}
		if t.text == "default" {
			if pol.Default != nil {
				return nil, errAt(t, "duplicate default block")
			}
			d, err := p.parseBlock(nil)
			if err != nil {
				return nil, err
			}
			pol.Default = d
			continue
		}
		nameTok := p.next()
		if nameTok.kind != tokWord || !isIdent(nameTok.text) {
			return nil, errAt(nameTok, fmt.Sprintf("expected group name, got %s", nameTok))
		}
		if nameTok.text == DefaultGroup {
			return nil, errAt(nameTok, "group name 'default' is reserved; use a 'default { ... }' block")
		}
		if names[nameTok.text] {
			return nil, errAt(nameTok, fmt.Sprintf("duplicate group %q", nameTok.text))
		}
		names[nameTok.text] = true
		g := Group{Name: nameTok.text}
		d, err := p.parseBlock(&g.Select)
		if err != nil {
			return nil, err
		}
		g.Dir = *d
		if !g.Select.All && len(g.Select.IDs) == 0 && len(g.Select.Tags) == 0 {
			return nil, errAt(nameTok, fmt.Sprintf("group %q has no select clause (it would match no switch)", g.Name))
		}
		pol.Groups = append(pol.Groups, g)
	}
	return pol, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func errAt(t token, msg string) *Error { return &Error{t.line, t.col, msg} }

func (p *parser) expectPunct(s string) *Error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return errAt(t, fmt.Sprintf("expected %q, got %s", s, t))
	}
	return nil
}

// parseBlock parses "{ stmt* }". sel == nil means select clauses are
// forbidden (the default block).
func (p *parser) parseBlock(sel *Selector) (*Directives, *Error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	d := &Directives{}
	seen := map[string]bool{}
	once := func(t token, what string) *Error {
		if seen[what] {
			return errAt(t, "duplicate "+what+" directive")
		}
		seen[what] = true
		return nil
	}
	for {
		t := p.next()
		if t.kind == tokPunct && t.text == "}" {
			return d, nil
		}
		if t.kind != tokWord {
			return nil, errAt(t, fmt.Sprintf("expected directive or '}', got %s", t))
		}
		switch t.text {
		case "select":
			if sel == nil {
				return nil, errAt(t, "the default block cannot select switches")
			}
			if err := p.parseSelect(t, sel); err != nil {
				return nil, err
			}
		case "match":
			if err := once(t, "match"); err != nil {
				return nil, err
			}
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			d.Match = pred
		case "every":
			if err := once(t, "every"); err != nil {
				return nil, err
			}
			dur, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			d.Every = dur
		case "confirm":
			if err := once(t, "confirm"); err != nil {
				return nil, err
			}
			if kw := p.next(); kw.kind != tokWord || kw.text != "within" {
				return nil, errAt(kw, fmt.Sprintf("expected 'within' after 'confirm', got %s", kw))
			}
			dur, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			d.Confirm = dur
		case "sample":
			if err := once(t, "sample"); err != nil {
				return nil, err
			}
			if err := p.parseSample(d); err != nil {
				return nil, err
			}
		case "debounce":
			if err := once(t, "debounce"); err != nil {
				return nil, err
			}
			n, err := p.parseCount(1, "debounce")
			if err != nil {
				return nil, err
			}
			d.Debounce = n
		case "stall":
			if err := once(t, "stall"); err != nil {
				return nil, err
			}
			n, err := p.parseCount(1, "stall")
			if err != nil {
				return nil, err
			}
			d.Stall = n
		case "flap":
			if err := once(t, "flap"); err != nil {
				return nil, err
			}
			win, err := p.parseCount(2, "flap window")
			if err != nil {
				return nil, err
			}
			flipTok := p.peek()
			flips, err := p.parseCount(1, "flap flips")
			if err != nil {
				return nil, err
			}
			if flips > win {
				return nil, errAt(flipTok, fmt.Sprintf("flap flips (%d) cannot exceed the window (%d)", flips, win))
			}
			d.FlapWin, d.FlapFlip = win, flips
		case "alert":
			if err := once(t, "alert"); err != nil {
				return nil, err
			}
			mode := p.next()
			if mode.kind != tokWord {
				return nil, errAt(mode, fmt.Sprintf("expected 'all', 'none' or 'only' after 'alert', got %s", mode))
			}
			switch mode.text {
			case "all":
				d.Alert = &AlertFilter{All: true}
			case "none":
				d.Alert = &AlertFilter{None: true}
			case "only":
				pred, err := p.parsePred()
				if err != nil {
					return nil, err
				}
				d.Alert = &AlertFilter{Only: pred}
			default:
				return nil, errAt(mode, fmt.Sprintf("expected 'all', 'none' or 'only' after 'alert', got %s", mode))
			}
		default:
			return nil, errAt(t, fmt.Sprintf("unknown directive %q", t.text))
		}
	}
}

func (p *parser) parseSelect(at token, sel *Selector) *Error {
	kind := p.next()
	if kind.kind != tokWord {
		return errAt(kind, fmt.Sprintf("expected 'all', 'switch' or 'tag' after 'select', got %s", kind))
	}
	if sel.All {
		return errAt(at, "'select all' cannot combine with other select clauses")
	}
	switch kind.text {
	case "all":
		if len(sel.IDs) > 0 || len(sel.Tags) > 0 {
			return errAt(at, "'select all' cannot combine with other select clauses")
		}
		sel.All = true
	case "switch":
		if len(sel.IDs) > 0 {
			return errAt(at, "duplicate 'select switch' clause")
		}
		for {
			t := p.next()
			n, err := strconv.ParseUint(t.text, 10, 32)
			if t.kind != tokWord || err != nil {
				return errAt(t, fmt.Sprintf("expected switch ID, got %s", t))
			}
			sel.IDs = append(sel.IDs, uint32(n))
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			return nil
		}
	case "tag":
		if len(sel.Tags) > 0 {
			return errAt(at, "duplicate 'select tag' clause")
		}
		for {
			t := p.next()
			if t.kind != tokWord && t.kind != tokString {
				return errAt(t, fmt.Sprintf("expected tag, got %s", t))
			}
			if t.text == "" {
				return errAt(t, "empty tag")
			}
			sel.Tags = append(sel.Tags, t.text)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			return nil
		}
	default:
		return errAt(kind, fmt.Sprintf("expected 'all', 'switch' or 'tag' after 'select', got %s", kind))
	}
	return nil
}

func (p *parser) parseDuration() (time.Duration, *Error) {
	t := p.next()
	if t.kind != tokWord {
		return 0, errAt(t, fmt.Sprintf("expected duration, got %s", t))
	}
	dur, err := time.ParseDuration(t.text)
	if err != nil {
		return 0, errAt(t, fmt.Sprintf("bad duration %q", t.text))
	}
	if dur <= 0 {
		return 0, errAt(t, fmt.Sprintf("duration %q must be positive", t.text))
	}
	return dur, nil
}

func (p *parser) parseCount(min int, what string) (int, *Error) {
	t := p.next()
	n, err := strconv.ParseUint(t.text, 10, 31)
	if t.kind != tokWord || err != nil {
		return 0, errAt(t, fmt.Sprintf("expected %s count, got %s", what, t))
	}
	if int(n) < min {
		return 0, errAt(t, fmt.Sprintf("%s must be at least %d", what, min))
	}
	return int(n), nil
}

func (p *parser) parseSample(d *Directives) *Error {
	t := p.next()
	if t.kind != tokWord || !strings.HasSuffix(t.text, "%") {
		return errAt(t, fmt.Sprintf("expected percentage (e.g. 10%%), got %s", t))
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.text, "%"), 64)
	if err != nil {
		return errAt(t, fmt.Sprintf("bad percentage %q", t.text))
	}
	bp := int(v*100 + 0.5)
	if bp < 1 || bp > 10000 {
		return errAt(t, fmt.Sprintf("sample rate %q must be between 0.01%% and 100%%", t.text))
	}
	d.SampleBP = bp
	if nxt := p.peek(); nxt.kind == tokWord && nxt.text == "seed" {
		p.next()
		st := p.next()
		seed, err := strconv.ParseUint(st.text, 10, 64)
		if st.kind != tokWord || err != nil {
			return errAt(st, fmt.Sprintf("expected seed value, got %s", st))
		}
		d.Seed = seed
		d.HasSeed = true
	}
	return nil
}

// ---- predicates ----

func (p *parser) parsePred() (Pred, *Error) {
	left, err := p.parseAndTerm()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "or" {
		p.next()
		right, err := p.parseAndTerm()
		if err != nil {
			return nil, err
		}
		left = &OrPred{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseAndTerm() (Pred, *Error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "and" {
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &AndPred{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseFactor() (Pred, *Error) {
	t := p.peek()
	if t.kind == tokPunct && t.text == "(" {
		p.next()
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return pred, nil
	}
	if t.kind == tokWord && t.text == "not" {
		p.next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &NotPred{X: inner}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Pred, *Error) {
	t := p.next()
	if t.kind != tokWord {
		return nil, errAt(t, fmt.Sprintf("expected predicate, got %s", t))
	}
	if t.text == "priority" || t.text == "id" {
		subject := SubjectPriority
		if t.text == "id" {
			subject = SubjectID
		}
		op := p.next()
		switch {
		case op.kind == tokPunct && (op.text == "=" || op.text == "<" || op.text == ">" || op.text == "<=" || op.text == ">="):
		default:
			return nil, errAt(op, fmt.Sprintf("expected comparison operator after %q, got %s", t.text, op))
		}
		vt := p.next()
		v, err := strconv.ParseUint(vt.text, 10, 63)
		if vt.kind != tokWord || err != nil {
			return nil, errAt(vt, fmt.Sprintf("expected number, got %s", vt))
		}
		return &IntPred{Subject: subject, Op: op.text, Value: v}, nil
	}
	f, ok := header.FieldByName(t.text)
	if !ok {
		return nil, errAt(t, fmt.Sprintf("unknown field %q (known: %s)", t.text, strings.Join(FieldNames(), ", ")))
	}
	op := p.next()
	switch {
	case op.kind == tokWord && op.text == "in":
		ct := p.next()
		if ct.kind != tokWord {
			return nil, errAt(ct, fmt.Sprintf("expected CIDR (addr/len), got %s", ct))
		}
		slash := strings.LastIndexByte(ct.text, '/')
		if slash < 0 {
			return nil, errAt(ct, fmt.Sprintf("expected CIDR (addr/len), got %q", ct.text))
		}
		v, err := header.ParseValue(f, ct.text[:slash])
		if err != nil {
			return nil, errAt(ct, err.Error())
		}
		width := header.Width(f)
		plen, err := strconv.Atoi(ct.text[slash+1:])
		if err != nil || plen < 0 || plen > width {
			return nil, errAt(ct, fmt.Sprintf("prefix length in %q must be between 0 and %d", ct.text, width))
		}
		mask := header.WidthMask(f) &^ (1<<uint(width-plen) - 1)
		return &FieldPred{Field: f, Tern: header.Ternary{Value: v & mask, Mask: mask}, Prefix: true, Plen: plen}, nil
	case op.kind == tokPunct && op.text == "=":
		vt := p.next()
		if vt.kind != tokWord {
			return nil, errAt(vt, fmt.Sprintf("expected value, got %s", vt))
		}
		v, err := header.ParseValue(f, vt.text)
		if err != nil {
			return nil, errAt(vt, err.Error())
		}
		return &FieldPred{Field: f, Tern: header.Ternary{Value: v, Mask: header.WidthMask(f)}}, nil
	default:
		return nil, errAt(op, fmt.Sprintf("expected 'in' or '=' after field %q, got %s", t.text, op))
	}
}
