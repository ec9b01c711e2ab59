package monocle

// Fuzz target for the HTTP rule-spec parser: RuleOp/RuleSpec JSON
// documents are decoded and run through the same field parsing the
// POST /switches/{id}/rules handler uses — OpenFlow 1.0 field names with
// decimal, 0x-hex, dotted-quad, and value/prefixlen forms, plus the
// action specs. The target asserts the parser never panics, that every
// accepted rule revalidates, that parsing is deterministic, and that
// accepted match values stay inside their field's width (an out-of-width
// exact value would silently match the wrong packets).

import (
	"encoding/json"
	"testing"
)

func FuzzRuleSpec(f *testing.F) {
	seeds := []string{
		// The canonical forms the service documentation advertises.
		`{"op":"add","rule":{"id":1,"priority":10,"match":{"dl_type":"0x800","nw_dst":"10.0.1.0/24"},"actions":[{"output":2}]}}`,
		`{"op":"add","rule":{"id":2,"priority":5,"match":{"dl_type":"2048","nw_src":"192.168.0.1"},"actions":[{"ecmp":[1,2,3]}]}}`,
		`{"op":"add","rule":{"id":3,"priority":1,"match":{"in_port":"4","dl_vlan":"0xffff"},"actions":[{"set":{"field":"nw_tos","value":184}},{"output":7}]}}`,
		`{"op":"modify","id":7,"actions":[{"output":9}],"dataplane":"actual"}`,
		`{"op":"delete","id":7,"dataplane":"expected"}`,
		// The sharp edges: overflow, bad quads, prefix bounds, empties.
		`{"op":"add","rule":{"match":{"nw_src":"10.0.0.0/33"}}}`,
		`{"op":"add","rule":{"match":{"nw_src":"1.2.3.4.5"}}}`,
		`{"op":"add","rule":{"match":{"nw_src":"256.0.0.1"}}}`,
		`{"op":"add","rule":{"match":{"dl_type":"0xfffffffffffffffff"}}}`,
		`{"op":"add","rule":{"match":{"tp_dst":"-1"}}}`,
		`{"op":"add","rule":{"match":{"nw_dst":"/8"}}}`,
		`{"op":"add","rule":{"match":{"nw_dst":"10.0.0.0/"}}}`,
		`{"op":"add","rule":{"match":{"bogus_field":"1"}}}`,
		`{"op":"add","rule":{"match":{"dl_src":"0x001122334455/12"}}}`,
		`{"op":"add","rule":{"actions":[{}]}}`,
		`{"op":"add","rule":{"actions":[{"set":{"field":"warp","value":1}}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var op RuleOp
		if err := json.Unmarshal(data, &op); err != nil {
			return
		}
		if _, err := actionList(op.Actions); err != nil {
			_ = err // rejected action specs are fine; panics are not
		}
		if op.Rule == nil {
			return
		}
		r1, err1 := op.Rule.rule()
		r2, err2 := op.Rule.rule()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic parse: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if r1.ID != r2.ID || r1.Priority != r2.Priority || r1.Match != r2.Match {
			t.Fatalf("nondeterministic rule: %+v vs %+v", r1, r2)
		}
		if err := r1.Validate(); err != nil {
			t.Fatalf("accepted rule fails validation: %v (spec %s)", err, data)
		}
		for f := FieldID(0); f < NumFields; f++ {
			tern := r1.Match[f]
			mask := uint64(1)<<FieldWidth(f) - 1
			if FieldWidth(f) == 64 {
				mask = ^uint64(0)
			}
			if tern.Value&^mask != 0 || tern.Mask&^mask != 0 {
				t.Fatalf("field %s ternary %+v exceeds its %d-bit width (spec %s)",
					f, tern, FieldWidth(f), data)
			}
		}
	})
}

// FuzzSwitchTag: the probe tag rides in dl_vlan, so a switch spec either
// is refused at registration or yields probes the data plane carries: a
// plain forwarding rule added to the registered sim switch must come back
// confirmed. A tag registration accepts but probes cannot carry would
// fail every rule op on that switch instead.
func FuzzSwitchTag(f *testing.F) {
	f.Add(uint32(4094), uint64(0))
	f.Add(uint32(4095), uint64(0))
	f.Add(uint32(5000), uint64(0))
	f.Add(uint32(5000), uint64(12))
	f.Fuzz(func(t *testing.T, id uint32, tag uint64) {
		svc := NewService(WithWorkers(1))
		defer svc.Close()
		if _, err := svc.AddSwitch(SwitchSpec{ID: id, Tag: tag}); err != nil {
			return
		}
		reply, err := svc.ApplyRule(id, RuleOp{Op: "add", Rule: &RuleSpec{ID: 1, Priority: 10,
			Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.0.0/24"},
			Actions: []ActionSpec{{Output: 2}}}})
		if err != nil || reply.Verdict != "confirmed" {
			t.Fatalf("switch %d tag %d accepted, but its rule add got %+v, %v", id, tag, reply, err)
		}
	})
}
