package probe

// Canonical witnesses: a rule's probe is a function of the rule, its
// overlap set, the table miss and the configuration (§5.4's overlap
// lemma), not of the rest of the table, the cluster it was solved in or
// the solver's history. The per-rule results of SessionCache rest on
// this: a rule no table change touched keeps its probe.

import (
	"context"
	"errors"
	"testing"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
)

// TestWitnessDependsOnlyOnOverlapSet compares every third rule's probe in a
// clustered whole-table sweep with the one-shot probe for the same rule in
// a table holding only it and its overlap set.
func TestWitnessDependsOnlyOnOverlapSet(t *testing.T) {
	cfg, err := SwitchConfig(1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(cfg)
	for _, prof := range []dataset.Profile{dataset.Stanford(), dataset.Campus()} {
		for seed := int64(1); seed <= 2; seed++ {
			p := prof
			p.Rules, p.Seed = 300, seed
			tb, _ := dataset.Generate(p)
			compared := 0
			for i, res := range g.GenerateAll(context.Background(), tb, 2) {
				if i%3 != 0 {
					continue
				}
				small := flowtable.New()
				small.Miss = tb.Miss
				for _, r := range append(tb.Overlapping(res.Rule), res.Rule) {
					if err := small.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
				alone, err := g.Generate(small, res.Rule)
				if errors.Is(err, ErrUnmonitorable) != errors.Is(res.Err, ErrUnmonitorable) ||
					(err == nil) != (res.Err == nil) {
					t.Fatalf("%s seed %d rule %d: sweep err %v, overlap-set err %v", p.Name, seed, res.Rule.ID, res.Err, err)
				}
				if err != nil {
					continue
				}
				if alone.Header != res.Probe.Header {
					t.Fatalf("%s seed %d rule %d: sweep header %v, overlap-set header %v",
						p.Name, seed, res.Rule.ID, res.Probe.Header, alone.Header)
				}
				compared++
			}
			if compared == 0 {
				t.Fatalf("%s seed %d: no probe compared", p.Name, seed)
			}
		}
	}
}
