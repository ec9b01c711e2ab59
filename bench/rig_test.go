package main

import (
	"context"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"monocle"
)

// rigTestSeed is a table seed whose 2x20 rules include wire-safe drop
// and forwarding rules on both switches.
const rigTestSeed = 7

// rigTestTimeout is the tests' observe deadline: longer than the
// benchmark's, so a scheduling stall under -race cannot turn a late catch
// into a silence verdict. The tests pin wiring, not timing.
const rigTestTimeout = 500 * time.Millisecond

func rigTables(t *testing.T) map[uint32][]*monocle.Rule {
	t.Helper()
	tables := make(map[uint32][]*monocle.Rule)
	for id := uint32(1); id <= 2; id++ {
		tables[id] = table(rigTestSeed, id, 20)
	}
	return tables
}

// startTestNet starts an in-process rig and a monitor network over it.
func startTestNet(t *testing.T, selfCatch bool, tables map[uint32][]*monocle.Rule) (*rig, *network) {
	t.Helper()
	r, err := startRig(len(tables), selfCatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	n, err := newNetwork(shape{switches: len(tables), rules: 20, wire: true}, tables, t.TempDir(), r.addrs(), nil, rigTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.close)
	return r, n
}

type ruleKey struct {
	sw   uint32
	rule uint64
}

// failing returns the rules a round's alerts report failing, with
// whether each probe's header survives the wire.
func failing(alerts []monocle.Alert) map[ruleKey]bool {
	out := make(map[ruleKey]bool)
	for _, a := range alerts {
		if a.Type == monocle.AlertRuleFailing {
			out[ruleKey{a.SwitchID, a.Rule}] = a.Record != nil && a.Record.Probe != nil && !wireUnsafe(a.Record.Probe.Header)
		}
	}
	return out
}

// TestRigHealthySweepMatchesSim pins the catcher wiring: over a healthy
// rig, no rule the SimBackend confirms raises an alert, except where the
// probe's header cannot survive the wire (ROADMAP 1(d), counted in
// failed_frac); and one FailRule raises exactly one rule_failing.
func TestRigHealthySweepMatchesSim(t *testing.T) {
	tables := rigTables(t)
	ctx := context.Background()
	sim, err := newNetwork(shape{switches: 2, rules: 20}, tables, t.TempDir(), rigAddrs{}, nil, rigTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.close()
	simFailing := failing(sim.svc.SweepRound(ctx))

	r, n := startTestNet(t, false, tables)
	wire := failing(n.svc.SweepRound(ctx))
	for k, wireSafe := range wire {
		if !simFailing[k] && wireSafe {
			t.Errorf("switch %d rule %d: rule_failing over the rig with a wire-safe probe, but the SimBackend confirms it", k.sw, k.rule)
		}
	}

	// Fail a healthy rule with a probe behind the monitor's back.
	var victim ruleKey
	for _, rec := range n.svc.LastSweep() {
		k := ruleKey{rec.Switch, rec.Rule}
		if rec.Probe != nil && !wire[k] {
			victim = k
			break
		}
	}
	if victim.sw == 0 {
		t.Fatal("no healthy rule with a probe")
	}
	r.switches[victim.sw].FailRule(victim.rule)
	alerts := n.svc.SweepRound(ctx)
	if len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleFailing || alerts[0].SwitchID != victim.sw || alerts[0].Rule != victim.rule {
		t.Fatalf("after failing switch %d rule %d: alerts %v, want exactly one rule_failing for it", victim.sw, victim.rule, alerts)
	}
}

// TestSelfCatchingIsUnexpected records why the rig has catchers: when a
// switch catches its own probes, a forwarding rule's present and absent
// outcomes arrive at the same switch with the same header, and the judge
// returns "unexpected" for rules the catcher wiring confirms.
func TestSelfCatchingIsUnexpected(t *testing.T) {
	tables := rigTables(t)
	ctx := context.Background()
	verdicts := func(selfCatch bool) map[ruleKey]monocle.Verdict {
		_, n := startTestNet(t, selfCatch, tables)
		out := make(map[ruleKey]monocle.Verdict)
		for id := uint32(1); id <= 2; id++ {
			v, _ := n.svc.Fleet().Verifier(id)
			be, _ := n.svc.Fleet().Backend(id)
			var keys []ruleKey
			var probes []*monocle.Probe
			var expects []monocle.Expectation
			for _, r := range tables[id] {
				if p, err := v.ProbeFor(r.ID); err == nil {
					keys = append(keys, ruleKey{id, r.ID})
					probes = append(probes, p)
					expects = append(expects, monocle.ExpectPresent)
				}
			}
			vs, errs := monocle.ObserveBatch(ctx, be, probes, expects)
			for i, k := range keys {
				if errs[i] != nil {
					t.Fatalf("switch %d rule %d: %v", k.sw, k.rule, errs[i])
				}
				out[k] = vs[i]
			}
		}
		return out
	}
	caught, self := verdicts(false), verdicts(true)
	unexpected := 0
	for k, v := range caught {
		if v == monocle.VerdictConfirmed && self[k] == monocle.VerdictUnexpected {
			unexpected++
		}
	}
	if unexpected == 0 {
		t.Fatalf("self-catching wiring judged every catcher-confirmed rule the same; verdicts %v vs %v", caught, self)
	}
	t.Logf("%d of %d catcher-confirmed rules are unexpected when switches catch their own probes", unexpected, len(caught))
}

// TestNoInternalImports keeps the benchmark on the public API: it must
// measure what a user of package monocle can reach.
func TestNoInternalImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		ast, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "monocle/internal") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
