package probe

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// TestSessionDifferentialRandomTables is the equivalence property test for
// the incremental engine: on seeded-random flow tables, Session.Generate
// must classify every rule exactly like the one-shot Generate (monitorable
// vs ErrUnmonitorable vs hard error), and every probe it produces must
// satisfy the same Hit/Distinguish/Collect discrimination (checked by
// ValidateModel inside both paths plus independent re-derivation here).
// The concrete headers may differ: any witness of the constraints is valid.
func TestSessionDifferentialRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	configs := []Config{
		{ValidateModel: true},
		{ValidateModel: true, Collect: flowtable.MatchAll().WithExact(header.VlanID, 1)},
		{ValidateModel: true, Counting: true},
		{ValidateModel: true, SkipOverlapFilter: true},
	}
	found, unmon := 0, 0
	for iter := 0; iter < 200; iter++ {
		tb := flowtable.New()
		if iter%3 == 0 {
			tb.Miss = flowtable.MissController
		}
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			_ = tb.Insert(randomRule(rng, uint64(i))) // skip equal-priority overlap rejects
		}
		g := NewGenerator(configs[iter%len(configs)])
		sess, err := g.NewSession(tb)
		if err != nil {
			t.Fatalf("iter %d: NewSession: %v", iter, err)
		}
		for _, r := range tb.Rules() {
			p1, err1 := g.Generate(tb, r)
			p2, err2 := sess.Generate(r)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("iter %d rule %v: one-shot err=%v, incremental err=%v", iter, r, err1, err2)
			}
			if errors.Is(err1, ErrUnmonitorable) != errors.Is(err2, ErrUnmonitorable) {
				t.Fatalf("iter %d rule %v: unmonitorable classification differs: %v vs %v", iter, r, err1, err2)
			}
			if err1 != nil {
				unmon++
				continue
			}
			found++
			if p1.Negative != p2.Negative {
				t.Fatalf("iter %d rule %v: negative-probe flag differs", iter, r)
			}
			// Independent discrimination check on the incremental probe:
			// it must hit the probed rule in the full table and produce
			// the re-derived absent behaviour without it.
			if hit := tb.Lookup(p2.Header); hit == nil || hit.ID != r.ID {
				t.Fatalf("iter %d rule %v: incremental probe %v hits %v", iter, r, p2.Header, hit)
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
			hit := without.Lookup(p2.Header)
			if hit == nil {
				if p2.Absent.Rule != nil {
					t.Fatalf("iter %d rule %v: absent should be a table miss, got rule %v", iter, r, p2.Absent.Rule)
				}
				if tb.Miss == flowtable.MissDrop && !p2.Absent.Drop {
					t.Fatalf("iter %d rule %v: absent mismatch on drop-miss: %+v", iter, r, p2.Absent)
				}
			} else if p2.Absent.Rule == nil || hit.ID != p2.Absent.Rule.ID {
				t.Fatalf("iter %d rule %v: absent rule mismatch: sim=%v probe=%v", iter, r, hit, p2.Absent.Rule)
			}
		}
	}
	if found == 0 {
		t.Fatal("differential test generated no probes at all")
	}
	t.Logf("differential: probes=%d unmonitorable=%d", found, unmon)
}

// TestSessionDifferentialACLDataset runs the same equivalence check on a
// structured ACL-style table (prefix nesting, deny mix, port matches) with
// the benchmark harness configuration.
func TestSessionDifferentialACLDataset(t *testing.T) {
	prof := dataset.Profile{
		Name: "mini", Rules: 80, PrefixPool: 50,
		DenyFraction: 0.35, PortFraction: 0.5, RewriteFraction: 0.1,
		Ports: 8, Seed: 990017,
	}
	tb, rules := dataset.Generate(prof)
	g := NewGenerator(Config{
		Collect:       flowtable.MatchAll().WithExact(header.VlanID, 1),
		ValidateModel: true,
	})
	sess, err := g.NewSession(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		_, err1 := g.Generate(tb, r)
		_, err2 := sess.Generate(r)
		if (err1 == nil) != (err2 == nil) || errors.Is(err1, ErrUnmonitorable) != errors.Is(err2, ErrUnmonitorable) {
			t.Fatalf("rule %v: one-shot err=%v, incremental err=%v", r, err1, err2)
		}
	}
}

// miniTable builds the shared table for the batch-mode tests.
func miniTable() (*flowtable.Table, []*flowtable.Rule) {
	return dataset.Generate(dataset.Profile{
		Name: "batch", Rules: 120, PrefixPool: 70,
		DenyFraction: 0.3, PortFraction: 0.5, RewriteFraction: 0.1,
		Ports: 8, Seed: 5501,
	})
}

// TestGenerateAllDeterministicAcrossParallelism asserts the batch engine's
// determinism contract: the probe set is bit-identical no matter how many
// workers the sweep is spread over — for the whole table and for a subset
// (every other rule) swept through a SessionCache. Run under -race this
// also exercises the concurrent sessions on a shared table.
func TestGenerateAllDeterministicAcrossParallelism(t *testing.T) {
	tb, rules := miniTable()
	g := NewGenerator(Config{
		Collect:       flowtable.MatchAll().WithExact(header.VlanID, 1),
		ValidateModel: true,
	})
	var subset []uint64
	for i, r := range rules {
		if i%2 == 0 {
			subset = append(subset, r.ID)
		}
	}
	t.Run("whole", func(t *testing.T) {
		assertDeterministic(t, tb.Len(), func(p int) []Result {
			return g.GenerateAll(context.Background(), tb, p)
		})
	})
	t.Run("subset", func(t *testing.T) {
		assertDeterministic(t, len(subset), func(p int) []Result {
			res, _ := g.NewSessionCache(tb).GenerateAllStats(context.Background(), 1, subset, p)
			return res
		})
	})
}

// assertDeterministic runs sweep at parallelism 1, 4 and NumCPU and
// requires n results each time, some probes found, and bit-identical
// probes across the runs.
func assertDeterministic(t *testing.T, n int, sweep func(parallelism int) []Result) {
	t.Helper()
	par := []int{1, 4, runtime.NumCPU()}
	var ref []Result
	for _, p := range par {
		res := sweep(p)
		if len(res) != n {
			t.Fatalf("parallelism %d: %d results for %d rules", p, len(res), n)
		}
		if ref == nil {
			ref = res
			ok := 0
			for _, r := range res {
				if r.Err == nil {
					ok++
				} else if !errors.Is(r.Err, ErrUnmonitorable) {
					t.Fatalf("rule %v: unexpected error %v", r.Rule, r.Err)
				}
			}
			if ok == 0 {
				t.Fatal("batch sweep found no probes at all")
			}
			continue
		}
		for i, r := range res {
			want := ref[i]
			if r.Rule.ID != want.Rule.ID {
				t.Fatalf("parallelism %d: result order diverged at %d", p, i)
			}
			if (r.Err == nil) != (want.Err == nil) {
				t.Fatalf("parallelism %d rule %d: err %v vs %v", p, r.Rule.ID, r.Err, want.Err)
			}
			if r.Err == nil && r.Probe.Header != want.Probe.Header {
				t.Fatalf("parallelism %d rule %d: header %v vs %v — probe set is not deterministic",
					p, r.Rule.ID, r.Probe.Header, want.Probe.Header)
			}
		}
	}
}

// TestGenerateAllMatchesSequentialSession: the clustered batch sweep must
// classify every rule exactly like a plain sequential session sweep
// (monitorable vs not). Headers may legitimately differ — the clustered
// solve runs from different (cluster-shared) solver state and any witness
// of the constraints is a valid probe — so probe validity is re-checked
// against the table instead of pinning bytes.
func TestGenerateAllMatchesSequentialSession(t *testing.T) {
	tb, _ := miniTable()
	g := NewGenerator(Config{ValidateModel: true})
	sess, err := g.NewSession(tb)
	if err != nil {
		t.Fatal(err)
	}
	res := g.GenerateAll(context.Background(), tb, 3)
	for i, r := range tb.Rules() {
		p, err := sess.Generate(r)
		if (err == nil) != (res[i].Err == nil) {
			t.Fatalf("rule %d: session err=%v batch err=%v", r.ID, err, res[i].Err)
		}
		if errors.Is(err, ErrUnmonitorable) != errors.Is(res[i].Err, ErrUnmonitorable) {
			t.Fatalf("rule %d: unmonitorable classification differs: %v vs %v", r.ID, err, res[i].Err)
		}
		if err != nil {
			continue
		}
		_ = p
		if hit := tb.Lookup(res[i].Probe.Header); hit == nil || hit.ID != r.ID {
			t.Fatalf("rule %d: batch probe %v hits %v", r.ID, res[i].Probe.Header, hit)
		}
	}
}

// TestGenerateAllClusterAblations: every ablation combination (clustering
// off, learnt reuse off) stays deterministic across worker counts and
// classifies identically to the full configuration.
func TestGenerateAllClusterAblations(t *testing.T) {
	tb, _ := miniTable()
	full := NewGenerator(Config{ValidateModel: true}).GenerateAll(context.Background(), tb, 2)
	for _, cfg := range []Config{
		{ValidateModel: true, DisableClustering: true},
		{ValidateModel: true, DisableLearntReuse: true},
	} {
		g := NewGenerator(cfg)
		ref := g.GenerateAll(context.Background(), tb, 1)
		for _, par := range []int{3, runtime.NumCPU()} {
			res := g.GenerateAll(context.Background(), tb, par)
			for i := range res {
				if (res[i].Err == nil) != (ref[i].Err == nil) {
					t.Fatalf("cfg %+v par %d rule %d: err %v vs %v", cfg, par, i, res[i].Err, ref[i].Err)
				}
				if res[i].Err == nil && res[i].Probe.Header != ref[i].Probe.Header {
					t.Fatalf("cfg %+v par %d rule %d: nondeterministic header", cfg, par, i)
				}
			}
		}
		for i := range ref {
			if errors.Is(ref[i].Err, ErrUnmonitorable) != errors.Is(full[i].Err, ErrUnmonitorable) {
				t.Fatalf("cfg %+v rule %d: classification differs from full config: %v vs %v",
					cfg, i, ref[i].Err, full[i].Err)
			}
		}
	}
}

// TestGenerateAllContextCancelled: a cancelled context aborts the sweep
// and surfaces the context error on unprocessed rules.
func TestGenerateAllContextCancelled(t *testing.T) {
	tb, _ := miniTable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := NewGenerator(Config{}).GenerateAll(ctx, tb, 2)
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("rule %v: err=%v, want context.Canceled", r.Rule, r.Err)
		}
	}
}

// TestGenerateAllEmptyTable: no rules, no workers, no results.
func TestGenerateAllEmptyTable(t *testing.T) {
	res := NewGenerator(Config{}).GenerateAll(context.Background(), flowtable.New(), 4)
	if len(res) != 0 {
		t.Fatalf("got %d results for an empty table", len(res))
	}
}

// TestSessionDynamicProbesStillWork pins that the one-shot paths reused by
// dynamic monitoring (modification probes over cloned tables) agree with a
// session built over the same altered table.
func TestSessionDynamicProbesStillWork(t *testing.T) {
	probed := &flowtable.Rule{ID: 7, Priority: 10,
		Match:   srcMatch(10, 0, 0, 0, 8),
		Actions: []flowtable.Action{flowtable.Output(1)}}
	def := &flowtable.Rule{ID: 1, Priority: 1,
		Actions: []flowtable.Action{flowtable.Output(2)}}
	tb := newTable(t, flowtable.MissDrop, probed, def)
	g := gen()
	sess, err := g.NewSession(tb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sess.Generate(probed)
	if err != nil {
		t.Fatal(err)
	}
	if hit := tb.Lookup(p.Header); hit == nil || hit.ID != probed.ID {
		t.Fatalf("session probe misses the probed rule: %v", p.Header)
	}
}
