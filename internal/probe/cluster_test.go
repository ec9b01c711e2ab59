package probe

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// TestClusterPlanCoversEveryRule: the plan partitions the rule set, every
// member's prefix+suffix equals its scope signature, and prefixes are
// subsets of every member's signature.
func TestClusterPlanCoversEveryRule(t *testing.T) {
	tb, _ := miniTable()
	g := NewGenerator(Config{Collect: flowtable.MatchAll().WithExact(header.VlanID, 1)})
	sess, err := g.NewSession(tb)
	if err != nil {
		t.Fatal(err)
	}
	plan := sess.planClusters(sess.rules)
	seen := make(map[int]bool)
	for _, c := range plan {
		for _, m := range c.members {
			if seen[m.idx] {
				t.Fatalf("rule index %d appears in two clusters", m.idx)
			}
			seen[m.idx] = true
			if m.err != nil {
				continue
			}
			sig := sess.sigOf(m.scope)
			union := append(append([]int32(nil), c.prefix...), m.suffix...)
			if len(union) != len(sig) {
				t.Fatalf("rule %d: prefix+suffix has %d blocks, scope signature %d", m.idx, len(union), len(sig))
			}
			want := make(map[int32]bool, len(sig))
			for _, b := range sig {
				want[b] = true
			}
			for _, b := range union {
				if !want[b] {
					t.Fatalf("rule %d: block %d attached but not in scope signature", m.idx, b)
				}
			}
		}
	}
	if len(seen) != len(sess.rules) {
		t.Fatalf("plan covers %d of %d rules", len(seen), len(sess.rules))
	}
}

// TestClusteredDifferentialRandomTables is the fuzz-style differential for
// the clustered engine: on seeded-random tables, the clustered parallel
// sweep must classify every rule exactly like the one-shot Generate, and
// every probe must discriminate the rule in the full table (independently
// re-derived here, on top of ValidateModel running inside both paths).
func TestClusteredDifferentialRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(987654))
	configs := []Config{
		{ValidateModel: true},
		{ValidateModel: true, Collect: flowtable.MatchAll().WithExact(header.VlanID, 1)},
		{ValidateModel: true, Counting: true},
		{ValidateModel: true, SkipOverlapFilter: true},
	}
	found := 0
	for iter := 0; iter < 120; iter++ {
		tb := flowtable.New()
		if iter%3 == 0 {
			tb.Miss = flowtable.MissController
		}
		n := 2 + rng.Intn(14)
		for i := 0; i < n; i++ {
			_ = tb.Insert(randomRule(rng, uint64(i)))
		}
		g := NewGenerator(configs[iter%len(configs)])
		par := 1 + rng.Intn(4)
		res := g.GenerateAll(context.Background(), tb, par)
		for i, r := range tb.Rules() {
			_, err1 := g.Generate(tb, r)
			err2 := res[i].Err
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("iter %d rule %v: one-shot err=%v, clustered err=%v", iter, r, err1, err2)
			}
			if errors.Is(err1, ErrUnmonitorable) != errors.Is(err2, ErrUnmonitorable) {
				t.Fatalf("iter %d rule %v: unmonitorable classification differs: %v vs %v", iter, r, err1, err2)
			}
			if err2 != nil {
				continue
			}
			found++
			p := res[i].Probe
			if hit := tb.Lookup(p.Header); hit == nil || hit.ID != r.ID {
				t.Fatalf("iter %d rule %v: clustered probe %v hits %v", iter, r, p.Header, hit)
			}
			without := flowtable.New()
			without.Miss = tb.Miss
			for _, o := range tb.Rules() {
				if o.ID != r.ID {
					if err := without.Insert(o.Clone()); err != nil {
						t.Fatal(err)
					}
				}
			}
			hit := without.Lookup(p.Header)
			if hit == nil {
				if p.Absent.Rule != nil {
					t.Fatalf("iter %d rule %v: absent should be a miss, got %v", iter, r, p.Absent.Rule)
				}
			} else if p.Absent.Rule == nil || hit.ID != p.Absent.Rule.ID {
				t.Fatalf("iter %d rule %v: absent rule mismatch: sim=%v probe=%v", iter, r, hit, p.Absent.Rule)
			}
		}
	}
	if found == 0 {
		t.Fatal("clustered differential generated no probes at all")
	}
}

// TestSessionForkClusterRace exercises concurrent forked sessions running
// clustered sweeps over one shared library (run with -race): two full
// GenerateAll sweeps race against each other on the same table while a
// sequential session reads the same shared library.
func TestSessionForkClusterRace(t *testing.T) {
	tb, rules := dataset.Generate(dataset.Profile{
		Name: "race", Rules: 150, PrefixPool: 60,
		DenyFraction: 0.3, PortFraction: 0.5, RewriteFraction: 0.1,
		Ports: 8, Seed: 31337,
	})
	g := NewGenerator(Config{
		Collect:       flowtable.MatchAll().WithExact(header.VlanID, 1),
		ValidateModel: true,
	})
	var wg sync.WaitGroup
	sweep := func() []Result {
		defer wg.Done()
		return g.GenerateAll(context.Background(), tb, runtime.NumCPU())
	}
	wg.Add(2)
	go sweep()
	go sweep()
	sess, err := g.NewSession(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules[:40] {
		_, _ = sess.Generate(r)
	}
	wg.Wait()
}
