package monocle

// White-box tests for the persistence layer: FileStore WAL round-trips,
// compaction, torn-tail tolerance, the Rule <-> RuleSpec wire-form
// round-trip the store depends on, and the Differ's State/Restore fold
// continuity.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := SwitchSpec{ID: 7, Backend: "sim", Ports: []uint16{1, 2}}
	if err := fs.SaveSwitch(spec); err != nil {
		t.Fatal(err)
	}
	rules := []RuleSpec{{ID: 1, Priority: 10,
		Match:   map[string]string{"dl_type": "2048", "nw_dst": "167772416/24"},
		Actions: []ActionSpec{{Output: 2}}}}
	if err := fs.SaveRules(7, 5, rules); err != nil {
		t.Fatal(err)
	}
	diffState := DifferState{Rounds: 9, Switches: map[uint32]SwitchDiffState{
		7: {Epoch: 5, Ever: true, Rules: map[uint64]RuleDiffState{
			1: {Streak: 2, Alerted: true, Hist: []bool{false, true, true}},
		}},
	}}
	alerts := []Alert{{Type: AlertRuleFailing, SwitchID: 7, Rule: 1, Epoch: 5, Status: StatusFailing, Streak: 2}}
	if err := fs.SaveRound(diffState, alerts); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store on the same directory sees everything back.
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	state, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := state.Switches[7]
	if !ok {
		t.Fatalf("switch 7 missing from %+v", state)
	}
	if !reflect.DeepEqual(st.Spec, spec) {
		t.Fatalf("spec round-trip: got %+v want %+v", st.Spec, spec)
	}
	if st.Epoch != 5 || !reflect.DeepEqual(st.Rules, rules) {
		t.Fatalf("rules round-trip: epoch %d rules %+v", st.Epoch, st.Rules)
	}
	if !st.HasDiff || !reflect.DeepEqual(st.Diff, diffState.Switches[7]) {
		t.Fatalf("diff round-trip: %+v", st)
	}
	if state.Rounds != 9 {
		t.Fatalf("rounds = %d, want 9", state.Rounds)
	}
	if !reflect.DeepEqual(state.Alerts, alerts) {
		t.Fatalf("alerts round-trip: %+v", state.Alerts)
	}
}

func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Push one switch's WAL far past the compaction threshold with
	// superseding snapshots.
	for i := 0; i < compactEvery+16; i++ {
		if err := fs.SaveRules(3, uint64(i+1), []RuleSpec{{ID: 1, Priority: i}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, switchWALName(3)))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines > compactEvery {
		t.Fatalf("WAL not compacted: %d lines", lines)
	}
	// The compacted file still loads to the latest snapshot.
	state, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	st := state.Switches[3]
	if st.Epoch != uint64(compactEvery+16) || len(st.Rules) != 1 || st.Rules[0].Priority != compactEvery+15 {
		t.Fatalf("post-compaction load: %+v", st)
	}
	// Appends after compaction land in the same file.
	if err := fs.SaveRules(3, 9999, nil); err != nil {
		t.Fatal(err)
	}
	state, err = fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := state.Switches[3]; got.Epoch != 9999 || len(got.Rules) != 0 {
		t.Fatalf("post-compaction append: %+v", got)
	}

	// A process that restarts before every compactEvery appends still
	// compacts: each life counts the records it found on open.
	dir = t.TempDir()
	for life, epoch := 0, 0; life < 4; life++ {
		fs, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			epoch++
			if err := fs.SaveRules(3, uint64(epoch), []RuleSpec{{ID: 1, Priority: epoch}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err = os.ReadFile(filepath.Join(dir, switchWALName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines > compactEvery {
		t.Fatalf("WAL of a restarting store not compacted: %d lines", lines)
	}
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	state, err = fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st := state.Switches[3]; st.Epoch != 800 || len(st.Rules) != 1 || st.Rules[0].Priority != 800 {
		t.Fatalf("restarting store lost the latest snapshot: %+v", st)
	}
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveRules(1, 3, []RuleSpec{{ID: 4, Priority: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveRound(DifferState{Rounds: 2}, nil); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	// A crash mid-append leaves a truncated final line; it must not take
	// the parsed prefix down with it.
	for _, name := range []string{switchWALName(1), serviceWALName} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(f, `{"kind":"rules","seq":99,"epo`)
		f.Close()
	}
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	state, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st := state.Switches[1]; st.Epoch != 3 || len(st.Rules) != 1 {
		t.Fatalf("torn tail corrupted the prefix: %+v", st)
	}
	if state.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", state.Rounds)
	}
	// What the second life appends after the torn lines must reach the
	// third life.
	if err := fs2.SaveRules(1, 7, []RuleSpec{{ID: 4, Priority: 1}, {ID: 5, Priority: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := fs2.SaveRound(DifferState{Rounds: 5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	fs3, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	state, err = fs3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st := state.Switches[1]; st.Epoch != 7 || len(st.Rules) != 2 {
		t.Fatalf("appends after a torn tail lost: %+v", st)
	}
	if state.Rounds != 5 {
		t.Fatalf("rounds after a torn tail = %d, want 5", state.Rounds)
	}
}

func TestFileStoreCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := SwitchSpec{ID: 5, Backend: "sim", Ports: []uint16{1, 2}}
	if err := fs.SaveSwitch(spec); err != nil {
		t.Fatal(err)
	}
	rules := []RuleSpec{{ID: 2, Priority: 7, Actions: []ActionSpec{{Output: 2}}}}
	if err := fs.SaveRules(5, 11, rules); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Simulate a kill between the compaction's tmp write and its atomic
	// rename: a fully written, synced temporary holding a *different*
	// (would-be compacted) state sits next to the untouched WAL. The WAL
	// is still the authoritative file — the rename never happened.
	stale := filepath.Join(dir, switchWALName(5)+".tmp-123456")
	if err := os.WriteFile(stale,
		[]byte(`{"seq":1,"kind":"rules","epoch":999,"rules":[{"id":66,"priority":1}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	state, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := state.Switches[5]
	if !ok {
		t.Fatalf("switch 5 missing from %+v", state)
	}
	if !reflect.DeepEqual(st.Spec, spec) || st.Epoch != 11 || !reflect.DeepEqual(st.Rules, rules) {
		t.Fatalf("load after compaction crash returned the wrong state: %+v", st)
	}
	// The orphaned temporary must be swept on open, not left to pile up.
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temporary survived open: %v", err)
	}
	// The recovered store keeps working: appends and a real compaction
	// against the survivor WAL.
	for i := 0; i < compactEvery+1; i++ {
		if err := fs2.SaveRules(5, uint64(100+i), rules); err != nil {
			t.Fatal(err)
		}
	}
	state, err = fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := state.Switches[5]; got.Epoch != uint64(100+compactEvery) {
		t.Fatalf("post-recovery compaction lost the latest snapshot: %+v", got)
	}
}

func TestRuleSpecRoundTrip(t *testing.T) {
	arbitrary := Ternary{Value: 0x0a000001 & 0xff0000ff, Mask: 0xff0000ff}
	rules := []*Rule{
		{ID: 1, Priority: 10,
			Match:   MatchAll().WithExact(EthType, EthTypeIPv4).With(IPDst, Prefix(IPDst, 10<<24|1<<8, 24)),
			Actions: []Action{Output(2)}},
		{ID: 2, Priority: 20,
			Match:   MatchAll().WithExact(EthType, EthTypeIPv4).With(IPSrc, arbitrary),
			Actions: []Action{SetField(VlanID, 5), Output(1)}},
		{ID: 3, Priority: 5,
			Match:   MatchAll(),
			Actions: []Action{ECMP(1, 2, 3)}},
		{ID: 4, Priority: 1, Match: MatchAll()}, // drop
	}
	for _, r := range rules {
		spec := ruleSpec(r)
		back, err := spec.rule()
		if err != nil {
			t.Fatalf("rule %d: re-parsing %+v: %v", r.ID, spec, err)
		}
		if back.ID != r.ID || back.Priority != r.Priority || back.Match != r.Match ||
			!reflect.DeepEqual(back.Actions, r.Actions) {
			t.Fatalf("rule %d round-trip:\n got %+v\nwant %+v\n(spec %+v)", r.ID, back, r, spec)
		}
	}
}

func TestParseTernaryMaskForm(t *testing.T) {
	tern, err := parseTernary(IPSrc, "0xa000001&0xff0000ff")
	if err != nil {
		t.Fatal(err)
	}
	want := Ternary{Value: 0x0a000001 & 0xff0000ff, Mask: 0xff0000ff}
	if tern != want {
		t.Fatalf("got %+v want %+v", tern, want)
	}
	if _, err := parseTernary(VlanID, "1&0xffffffff"); err == nil {
		t.Fatal("over-wide mask accepted")
	}
	if _, err := parseTernary(IPSrc, "zzz&1"); err == nil {
		t.Fatal("bad value accepted")
	}
}

// TestDifferStateRestore pins fold continuity: a Differ restored from a
// snapshot behaves exactly like the one that never stopped — outstanding
// failing alerts do not re-fire, and a later recovery fires once.
func TestDifferStateRestore(t *testing.T) {
	rule := &Rule{ID: 11, Priority: 1, Match: MatchAll(), Actions: []Action{Output(1)}}
	feed := func(d *Differ, bad bool) []Alert {
		ev := SweepEvent{SwitchID: 1, Epoch: 4, Result: ProbeResult{Rule: rule}}
		if bad {
			d.ObserveVerdict(ev, VerdictAbsent)
		} else {
			d.ObserveVerdict(ev, VerdictConfirmed)
		}
		return d.EndSweep()
	}

	d1 := NewDiffer(WithDebounce(2))
	if got := feed(d1, true); len(got) != 0 {
		t.Fatalf("debounce round alerted: %+v", got)
	}
	if got := feed(d1, true); len(got) != 1 || got[0].Type != AlertRuleFailing {
		t.Fatalf("want one failing alert, got %+v", got)
	}

	d2 := NewDiffer(WithDebounce(2))
	d2.Restore(d1.State())
	if d2.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", d2.Rounds())
	}
	// Still failing: the restored alerted flag suppresses a duplicate.
	if got := feed(d2, true); len(got) != 0 {
		t.Fatalf("restored differ re-fired: %+v", got)
	}
	// Recovery fires exactly once against the restored state.
	got := feed(d2, false)
	if len(got) != 1 || got[0].Type != AlertRuleRecovered || got[0].Rule != 11 {
		t.Fatalf("want one recovery, got %+v", got)
	}
	if got := feed(d2, false); len(got) != 0 {
		t.Fatalf("second recovery: %+v", got)
	}
}
