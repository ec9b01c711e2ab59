package main

import (
	"reflect"
	"strings"
	"testing"

	"monocle"
)

func TestLoadRuleSpecForms(t *testing.T) {
	rules, err := load([]byte(`[
		{"id":1,"priority":10,"match":{"dl_type":"0x800","nw_src":"10.0.0.1","tp_dst":"80"},"actions":[{"output":2}]},
		{"id":2,"priority":9,"match":{"nw_dst":"10.1.0.0/16"},"actions":[{"ecmp":[1,2]}]},
		{"id":3,"priority":8,"match":{"nw_dst":"0xa000001&0xff0000ff"},"actions":[{"set":{"field":"nw_tos","value":46}},{"output":3}]},
		{"id":4,"priority":1}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []*monocle.Rule{
		{ID: 1, Priority: 10, Match: monocle.MatchAll().
			WithExact(monocle.EthType, 0x800).
			WithExact(monocle.IPSrc, 0x0a000001).
			WithExact(monocle.TPDst, 80),
			Actions: []monocle.Action{monocle.Output(2)}},
		{ID: 2, Priority: 9, Match: monocle.MatchAll().With(monocle.IPDst, monocle.Prefix(monocle.IPDst, 0x0a010000, 16)),
			Actions: []monocle.Action{monocle.ECMP(1, 2)}},
		{ID: 3, Priority: 8, Match: monocle.MatchAll().With(monocle.IPDst, monocle.Ternary{Value: 0x0a000001, Mask: 0xff0000ff}),
			Actions: []monocle.Action{monocle.SetField(monocle.IPTos, 46), monocle.Output(3)}},
		{ID: 4, Priority: 1, Match: monocle.MatchAll()},
	}
	if len(rules) != len(want) {
		t.Fatalf("loaded %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		w := want[i]
		if r.ID != w.ID || r.Priority != w.Priority || r.Match != w.Match || !reflect.DeepEqual(r.Actions, w.Actions) {
			t.Fatalf("rule %d: got %+v, want %+v", i, r, w)
		}
	}
}

func TestLoadRejects(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"old set form", `[{"id":1,"actions":[{"output":1}]},{"id":2,"actions":[{"set":"nw_tos","value":46}]}]`, "rule 1:"},
		{"unknown field", `[{"id":1,"match":{"nw_bogus":"1"}}]`, "rule 0:"},
		{"wider than field", `[{"id":1,"match":{"tp_dst":"70000"}}]`, "rule 0:"},
		{"not an array", `{"id":1}`, "parsing rules"},
	} {
		if _, err := load([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: load error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTableMissFlag(t *testing.T) {
	for in, want := range map[string]monocle.TableMiss{"drop": monocle.MissDrop, "controller": monocle.MissController} {
		if got, err := tableMiss(in); err != nil || got != want {
			t.Errorf("tableMiss(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "contoller", "Drop"} {
		if _, err := tableMiss(in); err == nil {
			t.Errorf("tableMiss(%q) accepted", in)
		}
	}
}
