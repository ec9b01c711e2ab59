package monocle

// The per-op WAL: a committed rule op appends one rule_op record, and
// FileStore.Load folds the records saved since the last snapshot into
// the table the live Verifier holds — after every op, under concurrent
// ops, across compaction and after a crash that cut the WAL anywhere.
// Old snapshot-only state directories still load and resume.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// loadSwitch opens a fresh FileStore on dir and returns switch id's
// loaded epoch and rules (zero when the store holds no such switch).
func loadSwitch(t testing.TB, dir string, id uint32) (uint64, []RuleSpec) {
	t.Helper()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	state, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	st := state.Switches[id]
	return st.Epoch, st.Rules
}

// sameRules compares rule lists, an empty list equal to a nil one.
func sameRules(a, b []RuleSpec) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// checkLoadMatchesLive fails unless a freshly opened store on dir loads
// switch id at exactly the live Verifier's epoch and table.
func checkLoadMatchesLive(t testing.TB, dir string, id uint32, v *Verifier, what string) {
	t.Helper()
	epoch, rules := loadSwitch(t, dir, id)
	if live := ruleSpecs(v.Rules()); epoch != v.Epoch() || !sameRules(rules, live) {
		t.Fatalf("%s: loaded epoch %d rules %+v, live epoch %d rules %+v", what, epoch, rules, v.Epoch(), live)
	}
}

// walRule is a rule matching IPv4 traffic to 10.0.<id>.0/24, so rules of
// equal priority never overlap; out 0 drops.
func walRule(id uint64, prio int, out uint16) RuleSpec {
	rs := RuleSpec{ID: id, Priority: prio,
		Match: map[string]string{"dl_type": "0x800", "nw_dst": fmt.Sprintf("10.0.%d.0/24", id%256)}}
	if out != 0 {
		rs.Actions = []ActionSpec{{Output: out}}
	}
	return rs
}

func TestRuleOpWALMatchesLiveTable(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(WithStateDir(dir))
	defer svc.Close()
	v, err := svc.AddSwitch(SwitchSpec{ID: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.InstallRuleSpecs(4, walRule(1, 10, 1), walRule(2, 5, 2), walRule(3, 5, 3)); err != nil {
		t.Fatal(err)
	}
	checkLoadMatchesLive(t, dir, 4, v, "install")
	walPath := filepath.Join(dir, switchWALName(4))
	// Enough ops to cross compaction twice. Equal priorities exercise
	// the insertion position; modifies and deletes hit every position.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*compactEvery+40; i++ {
		present := v.Rules()
		pick := present[rng.Intn(len(present))].ID
		var op RuleOp
		switch k := rng.Intn(3); {
		case k == 0 || len(present) < 4:
			rs := walRule(uint64(4+rng.Intn(200)), []int{3, 5, 5, 10}[rng.Intn(4)], uint16(rng.Intn(4)))
			rs.Match["dl_type"] = "2048" // a non-canonical literal, logged canonically
			op = RuleOp{Op: "add", Rule: &rs}
		case k == 1:
			op = RuleOp{Op: "modify", ID: pick, Actions: []ActionSpec{{Output: uint16(1 + rng.Intn(5))}}}
		default:
			op = RuleOp{Op: "delete", ID: pick}
		}
		before, _ := os.Stat(walPath)
		svc.ApplyRule(4, op) // an add of a present id or an op on a missing one is rejected
		checkLoadMatchesLive(t, dir, 4, v, fmt.Sprintf("op %d %+v", i, op))
		// Between compactions an op appends one small record, not the
		// table.
		if after, _ := os.Stat(walPath); after.Size() > before.Size() && after.Size()-before.Size() > 400 {
			t.Fatalf("op %d appended %d bytes", i, after.Size()-before.Size())
		}
	}
	if v.Epoch() < 2*compactEvery {
		t.Fatalf("only %d ops committed; the script no longer crosses compaction twice", v.Epoch())
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > compactEvery {
		t.Fatalf("WAL not compacted: %d lines", n)
	}
	if strings.Count(string(data), `"kind":"rules"`) != 1 {
		t.Fatalf("compacted WAL should hold exactly one snapshot:\n%s", data)
	}
}

// TestErroredOpIsLogged pins that an op that changed the table reaches
// the WAL even when the reply is an error: the epoch moved, so a restart
// must not revert the change. A modify at minimum priority fails probe
// generation after the table changed; a delete of a rule the data plane
// never had fails the FlowMod after the table changed.
func TestErroredOpIsLogged(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(WithStateDir(dir))
	defer svc.Close()
	v, err := svc.AddSwitch(SwitchSpec{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := walRule(7, math.MinInt, 1)
	if _, err := svc.ApplyRule(1, RuleOp{Op: "add", Rule: &rs}); err != nil {
		t.Fatal(err)
	}
	_, err = svc.ApplyRule(1, RuleOp{Op: "modify", ID: 7, Actions: []ActionSpec{{Output: 2}}})
	if err == nil || !strings.Contains(err.Error(), "minimum priority") {
		t.Fatalf("modify at minimum priority: err %v, want the demote error", err)
	}
	if v.Epoch() != 2 {
		t.Fatalf("live epoch %d, want 2 (the modify committed)", v.Epoch())
	}
	checkLoadMatchesLive(t, dir, 1, v, "failed-generation modify")
	if _, rules := loadSwitch(t, dir, 1); rules[0].Actions[0].Output != 2 {
		t.Fatalf("restart would revert the modify: %+v", rules)
	}

	ghost := walRule(8, 3, 1)
	if _, err := svc.ApplyRule(1, RuleOp{Op: "add", Rule: &ghost, Dataplane: "expected"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyRule(1, RuleOp{Op: "delete", ID: 8}); err == nil {
		t.Fatal("deleting a rule the data plane never had: no error")
	}
	if _, ok := v.Rule(8); ok || v.Epoch() != 4 {
		t.Fatalf("the delete did not commit on the expected side (epoch %d)", v.Epoch())
	}
	checkLoadMatchesLive(t, dir, 1, v, "failed-FlowMod delete")
}

// TestConcurrentRuleOpsWAL races ops on one switch: each record must
// carry its own op's epoch and land in commit order, so the fold equals
// the live table (run with -race).
func TestConcurrentRuleOpsWAL(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(WithStateDir(dir))
	defer svc.Close()
	v, err := svc.AddSwitch(SwitchSpec{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := uint64(1 + g*8 + i%8)
				var op RuleOp
				switch i % 4 {
				case 0, 1:
					rs := walRule(id, 3+i%3, uint16(1+g))
					op = RuleOp{Op: "add", Rule: &rs}
				case 2:
					op = RuleOp{Op: "modify", ID: id - 1, Actions: []ActionSpec{{Output: uint16(2 + i%3)}}}
				default:
					op = RuleOp{Op: "delete", ID: id - 2}
				}
				svc.ApplyRule(2, op) // duplicates and misses are rejected, not logged
			}
		}(g)
	}
	wg.Wait()
	if v.Epoch() < 100 {
		t.Fatalf("only %d of 200 ops committed", v.Epoch())
	}
	checkLoadMatchesLive(t, dir, 2, v, "after concurrent ops")
}

// walScript drives a fixed mix of registrations, installs, rule ops on
// both sides and on one side only, sweep rounds raising alerts, and a
// policy swap through svc. testdata/wal-snapshots holds the state
// directory a FileStore of the snapshot-only format (no rule_op records)
// wrote for it, with WithDebounce(2).
func walScript(svc *Service) error {
	ctx := context.Background()
	for id := uint32(1); id <= 2; id++ {
		if _, err := svc.AddSwitch(SwitchSpec{ID: id, Tags: []string{fmt.Sprintf("t%d", id)}}); err != nil {
			return err
		}
		if err := svc.InstallRuleSpecs(id, walRule(1, 10, 1), walRule(2, 5, 2), walRule(3, 5, 0)); err != nil {
			return err
		}
	}
	a4, a5, a6 := walRule(4, 7, 3), walRule(5, 5, 4), walRule(6, 10, 2)
	ops := []struct {
		id uint32
		op RuleOp
	}{
		{1, RuleOp{Op: "add", Rule: &a4}},
		{1, RuleOp{Op: "add", Rule: &a5}},
		{2, RuleOp{Op: "add", Rule: &a6}},
		{1, RuleOp{Op: "modify", ID: 2, Actions: []ActionSpec{{Output: 9}}}},
		{2, RuleOp{Op: "delete", ID: 3}},
		{1, RuleOp{Op: "modify", ID: 4, Dataplane: "actual", Actions: []ActionSpec{{Output: 8}}}},
		{2, RuleOp{Op: "modify", ID: 1, Dataplane: "expected", Actions: []ActionSpec{{Output: 7}}}},
	}
	for _, o := range ops {
		if _, err := svc.ApplyRule(o.id, o.op); err != nil {
			return fmt.Errorf("switch %d %+v: %w", o.id, o.op, err)
		}
	}
	for i := 0; i < 3; i++ {
		svc.SweepRound(ctx)
	}
	pol, err := ParsePolicy("policy edge { select tag \"t2\" }\n")
	if err != nil {
		return err
	}
	svc.SetPolicy(pol)
	if _, err := svc.ApplyRule(1, RuleOp{Op: "delete", ID: 5}); err != nil {
		return err
	}
	svc.SweepRound(ctx)
	return nil
}

// TestSnapshotOnlyWALLoads resumes the committed state directory of the
// snapshot-only format and checks it against walScript run without a
// store: tables, epochs, alerts and policy. Stored alerts are history:
// they load exactly as the fixture holds them, and they agree with the
// script's alerts on every field but the probe, whose header and instance
// size belong to the generator of the binary that wrote them.
func TestSnapshotOnlyWALLoads(t *testing.T) {
	want := NewService(WithDebounce(2))
	defer want.Close()
	if err := walScript(want); err != nil {
		t.Fatal(err)
	}
	if len(want.Alerts()) == 0 {
		t.Fatal("the script raised no alerts; the check below would be vacuous")
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "wal-snapshots")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var stored []Alert
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"kind":"rule_op"`) {
			t.Fatalf("%s holds rule_op records; it must be the snapshot-only format", e.Name())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var rec walRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if rec.Kind == "alert" {
				stored = append(stored, *rec.Alert)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	state, err := fs.Load()
	fs.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range want.Fleet().Switches() {
		v, _ := want.Fleet().Verifier(id)
		if st := state.Switches[id]; st.Epoch != v.Epoch() || !sameRules(st.Rules, ruleSpecs(v.Rules())) {
			t.Fatalf("switch %d: loaded epoch %d rules %+v, want epoch %d rules %+v",
				id, st.Epoch, st.Rules, v.Epoch(), ruleSpecs(v.Rules()))
		}
	}
	checkStoredAlerts(t, "loaded", state.Alerts, stored, want.Alerts())
	if state.Policy != want.Policy().Source() {
		t.Fatalf("loaded policy %q, want %q", state.Policy, want.Policy().Source())
	}

	got := NewService(WithDebounce(2), WithStateDir(dir))
	defer got.Close()
	if err := got.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range want.Fleet().Switches() {
		wv, _ := want.Fleet().Verifier(id)
		gv, ok := got.Fleet().Verifier(id)
		if !ok || gv.Epoch() != wv.Epoch() || !sameRules(ruleSpecs(gv.Rules()), ruleSpecs(wv.Rules())) {
			t.Fatalf("switch %d did not resume to the script's table at epoch %d", id, wv.Epoch())
		}
	}
	checkStoredAlerts(t, "resumed", got.Alerts(), stored, want.Alerts())
	if got.Policy() == nil || got.Policy().Source() != want.Policy().Source() {
		t.Fatalf("resumed policy %v, want %q", got.Policy(), want.Policy().Source())
	}
}

// checkStoredAlerts requires alerts to equal the stored records exactly
// and the script's alerts with each record's probe left out.
func checkStoredAlerts(t *testing.T, what string, alerts, stored, script []Alert) {
	t.Helper()
	if len(stored) == 0 {
		t.Fatal("the fixture holds no alerts; the check would be vacuous")
	}
	if !reflect.DeepEqual(alerts, stored) {
		t.Fatalf("%s alerts %+v, want the stored %+v", what, alerts, stored)
	}
	if !reflect.DeepEqual(withoutProbes(alerts), withoutProbes(script)) {
		t.Fatalf("%s alerts %+v, want the script's %+v (probes aside)", what, alerts, script)
	}
}

// withoutProbes copies alerts with every record's probe cleared.
func withoutProbes(alerts []Alert) []Alert {
	out := make([]Alert, len(alerts))
	for i, a := range alerts {
		if a.Record != nil {
			rec := *a.Record
			rec.Probe = nil
			a.Record = &rec
		}
		out[i] = a
	}
	return out
}

// FuzzRuleOpWAL drives random installs and rule ops into one switch, then
// cuts its WAL at an arbitrary byte: Load must give the table of some
// prefix of the committed ops, at that prefix's epoch.
func FuzzRuleOpWAL(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0))
	f.Add([]byte{1, 17, 33, 49, 2, 18, 3, 19, 34, 50, 66}, uint16(300))
	f.Add([]byte{4, 20, 36, 1, 2, 3, 5, 6, 7, 1, 2, 3}, uint16(1000))
	f.Fuzz(func(t *testing.T, script []byte, cut uint16) {
		if len(script) > 48 {
			script = script[:48]
		}
		dir := t.TempDir()
		svc := NewService(WithStateDir(dir))
		defer svc.Close()
		v, err := svc.AddSwitch(SwitchSpec{ID: 1})
		if err != nil {
			t.Fatal(err)
		}
		type snap struct {
			epoch uint64
			rules []RuleSpec
		}
		states := []snap{{}}
		prios := []int{1, 5, 5, 9, math.MinInt}
		for _, b := range script {
			id := uint64(1 + b>>5)
			prio, out := prios[int(b>>2)%len(prios)], uint16(b>>4&3)
			switch b & 3 {
			case 0:
				svc.InstallRuleSpecs(1, walRule(id, prio, out))
			case 1:
				rs := walRule(id, prio, out)
				svc.ApplyRule(1, RuleOp{Op: "add", Rule: &rs})
			case 2:
				var acts []ActionSpec
				if out != 0 {
					acts = []ActionSpec{{Output: out}, {Set: &SetFieldSpec{Field: "nw_tos", Value: 4}}}
				}
				svc.ApplyRule(1, RuleOp{Op: "modify", ID: id, Actions: acts})
			default:
				svc.ApplyRule(1, RuleOp{Op: "delete", ID: id})
			}
			if e := v.Epoch(); e != states[len(states)-1].epoch {
				states = append(states, snap{e, ruleSpecs(v.Rules())})
			}
		}
		path := filepath.Join(dir, switchWALName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int(cut) % (len(data) + 1)
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		epoch, rules := loadSwitch(t, dir, 1)
		for _, s := range states {
			if s.epoch == epoch && sameRules(s.rules, rules) {
				return
			}
		}
		t.Fatalf("cut at %d of %d bytes loaded epoch %d rules %+v: no prefix of the committed ops leaves that", n, len(data), epoch, rules)
	})
}
