package monocle_test

// Differential fuzz target for the SessionCache's per-rule results: a
// rule no table change touched is answered from its last result instead
// of being solved again. Twin A, a Fleet with one switch over a seeded
// Stanford table, takes the op sequence; before each sweep twin B is
// rebuilt as a fresh Fleet holding A's rules, so it solves every rule.
// After every sweep both twins' per-rule records must be equal, epoch
// excluded.

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"monocle"
)

func FuzzSweepReuse(f *testing.F) {
	f.Add(int64(1), []byte{8, 8, 5, 6, 7, 7, 2, 8, 8, 3, 6, 6})
	f.Add(int64(2), []byte{5, 5, 0, 5, 1, 7, 4, 7, 2, 6, 8, 0, 0, 8})
	f.Add(int64(3), []byte{7, 7, 7, 3, 3, 7, 7, 1, 1, 5, 5, 4})
	// Each mutation sits between two sweeps of the same key.
	f.Add(int64(4), []byte{8, 2, 8, 3, 8, 0, 8, 1, 8, 5, 2, 5, 6, 3, 6, 5, 0, 5})
	f.Add(int64(-987654321), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOP"))
	f.Fuzz(runSweepReuse)
}

// runSweepReuse applies ops, drawing each op's details from seed, to the
// two twins and compares every sweep.
func runSweepReuse(t *testing.T, seed int64, ops []byte) {
	if len(ops) > 32 {
		ops = ops[:32]
	}
	p := monocle.StanfordDataset()
	p.Rules, p.Seed = 24, seed
	_, base := monocle.GenerateDataset(p)
	p.Seed = seed + 1
	_, extra := monocle.GenerateDataset(p)
	for _, r := range extra {
		r.ID += 1 << 16
	}

	// twin builds a Fleet whose one switch holds copies of rules.
	twin := func(rules []*monocle.Rule) (*monocle.Fleet, *monocle.Verifier) {
		t.Helper()
		f := monocle.NewFleet(monocle.WithWorkers(2))
		v, err := f.AddSwitch(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Install(cloneRules(rules)...); err != nil {
			t.Fatal(err)
		}
		return f, v
	}
	var fleets [2]*monocle.Fleet
	var vs [2]*monocle.Verifier
	fleets[0], vs[0] = twin(base)
	rng := rand.New(rand.NewSource(seed))
	pick := func() uint64 {
		rules := vs[0].Rules()
		if len(rules) == 0 {
			return 0
		}
		return rules[rng.Intn(len(rules))].ID
	}
	ctx := context.Background()
	for step, op := range ops {
		switch kind := op % 9; kind {
		case 0: // Install zero or one rule
			var rs []*monocle.Rule
			if len(extra) > 0 && rng.Intn(2) == 0 {
				rs, extra = extra[:1], extra[1:]
			}
			_ = vs[0].Install(cloneRules(rs)...)
		case 1: // Add
			if len(extra) == 0 {
				continue
			}
			r := extra[0]
			extra = extra[1:]
			_, _ = vs[0].Add(r.Clone())
		case 2: // Modify
			id := pick()
			var acts []monocle.Action
			if port := rng.Intn(5); port > 0 {
				acts = []monocle.Action{monocle.Output(monocle.PortID(port))}
			}
			_, _ = vs[0].Modify(id, acts)
		case 3: // Delete
			id := pick()
			_, _ = vs[0].Delete(id)
		case 4: // ProbeFor
			id := pick()
			_, _ = vs[0].ProbeFor(id)
		default: // a sweep: Verifier.Sweep, all ids, a subset, nil plan
			var ids []uint64
			if kind == 6 || kind == 7 {
				ids = []uint64{}
				for _, r := range vs[0].Rules() {
					if kind == 6 || rng.Intn(3) == 0 {
						ids = append(ids, r.ID)
					}
				}
			}
			// Both twins must sweep exactly the current selection, so a
			// memo that outlived a table change cannot pass unnoticed.
			want := ids
			if want == nil {
				for _, r := range vs[0].Rules() {
					want = append(want, r.ID)
				}
			}
			fleets[1], vs[1] = twin(vs[0].Rules()) // solves every rule
			var got [2][]string
			for i, v := range vs {
				var recs []monocle.ResultRecord
				switch kind {
				case 5:
					for _, res := range v.Sweep(ctx) {
						recs = append(recs, monocle.NewResultRecord(1, 0, res))
					}
				case 8:
					for _, ev := range fleets[i].Sweep(ctx) {
						recs = append(recs, ev.Record())
					}
				default:
					for _, ev := range fleets[i].SweepPlan(ctx, map[uint32][]uint64{1: ids}) {
						recs = append(recs, ev.Record())
					}
				}
				if len(recs) != len(want) {
					t.Fatalf("step %d (op %d): twin %d swept %d rules, table selects %d", step, kind, i, len(recs), len(want))
				}
				for j, rec := range recs {
					if rec.Rule != want[j] {
						t.Fatalf("step %d (op %d): twin %d record %d is rule %d, want %d", step, kind, i, j, rec.Rule, want[j])
					}
					rec.Epoch = 0
					b, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = append(got[i], string(b))
				}
			}
			if len(got[0]) != len(got[1]) {
				t.Fatalf("step %d (op %d): %d records, re-solved twin %d", step, kind, len(got[0]), len(got[1]))
			}
			for j := range got[0] {
				if got[0][j] != got[1][j] {
					t.Fatalf("step %d (op %d) record %d:\n  memo      %s\n  re-solved %s", step, kind, j, got[0][j], got[1][j])
				}
			}
		}
	}
}

// cloneRules deep-copies rules so two Verifiers never share one.
func cloneRules(rules []*monocle.Rule) []*monocle.Rule {
	out := make([]*monocle.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return out
}
