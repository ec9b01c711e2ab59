// Package repro_test holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (§8), plus ablation
// benchmarks for the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The benchmarks run reduced repetitions/sizes per iteration; the
// cmd/experiments binary regenerates the full-size tables.
package monocle_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"monocle"
	"monocle/internal/cnf"
	"monocle/internal/dataset"
	"monocle/internal/experiments"
	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/probe"
	"monocle/internal/sat"
	"monocle/internal/switchsim"
)

// BenchmarkTable2Stanford measures per-rule probe generation on the
// Stanford-like ACL dataset (paper: 1.48 ms avg).
func BenchmarkTable2Stanford(b *testing.B) {
	benchDatasetGeneration(b, dataset.Stanford(), false)
}

// BenchmarkTable2Campus measures per-rule probe generation on the
// Campus-like ACL dataset (paper: 4.03 ms avg).
func BenchmarkTable2Campus(b *testing.B) {
	benchDatasetGeneration(b, dataset.Campus(), false)
}

// BenchmarkAblationOverlapFilterOff disables the §5.4 overlap pre-filter:
// every rule feeds the constraints, quantifying the optimization.
func BenchmarkAblationOverlapFilterOff(b *testing.B) {
	p := dataset.Stanford()
	p.Rules = 400 // unfiltered generation is quadratic; keep it finite
	benchDatasetGeneration(b, p, true)
}

func benchDatasetGeneration(b *testing.B, p dataset.Profile, skipFilter bool) {
	tb, rules := dataset.Generate(p)
	gen := probe.NewGenerator(probe.Config{
		Collect:           flowtable.MatchAll().WithExact(header.VlanID, 1),
		SkipOverlapFilter: skipFilter,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gen.Generate(tb, rules[i%len(rules)])
	}
}

// BenchmarkAblationChainSplitting compares the Velev if-then-else chain
// with aggressive vs no splitting (Appendix B: long chains are quadratic
// and must be split via fresh variables).
func BenchmarkAblationChainSplitting(b *testing.B) {
	tb, rules := dataset.Generate(dataset.Stanford())
	for _, mc := range []int{4, 16, 1 << 20} {
		name := "MaxChain=unbounded"
		if mc < 1<<20 {
			name = fmt.Sprintf("MaxChain=%d", mc)
		}
		b.Run(name, func(b *testing.B) {
			gen := probe.NewGenerator(probe.Config{
				Collect:  flowtable.MatchAll().WithExact(header.VlanID, 1),
				MaxChain: mc,
			})
			for i := 0; i < b.N; i++ {
				_, _ = gen.Generate(tb, rules[i%len(rules)])
			}
		})
	}
}

// BenchmarkFigure4 runs one full failure-detection repetition (1000-rule
// table, 500 probes/s, one failed rule) per iteration.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFigure4(1)
		cfg.Rules = 1000
		cfg.Scenarios = cfg.Scenarios[:1] // "1 out of 1"
		res := experiments.RunFigure4(cfg)
		if len(res.Series["1 out of 1"]) != 1 {
			b.Fatal("no detection")
		}
	}
}

// BenchmarkFigure5HP runs the 300-flow consistent update against the
// HP-like switch with Monocle confirmations.
func BenchmarkFigure5HP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure5(experiments.Figure5Config{
			Flows: 300, PacketRate: 300,
			S3Profile:  switchsim.HP5406zl(),
			UseMonocle: true, Seed: 5,
		})
		if res.Dropped > 100 {
			b.Fatalf("unexpected drops: %f", res.Dropped)
		}
	}
}

// BenchmarkFigure5Pica8Barriers is the inconsistent baseline.
func BenchmarkFigure5Pica8Barriers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure5(experiments.Figure5Config{
			Flows: 300, PacketRate: 300,
			S3Profile:  switchsim.Pica8(),
			UseMonocle: false, Seed: 5,
		})
		if res.Dropped == 0 {
			b.Fatal("baseline should drop packets")
		}
	}
}

// BenchmarkFigure6 sweeps the PacketOut:FlowMod interference matrix.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RunFigure6()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFigure7 sweeps the PacketIn interference matrix.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RunFigure7()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFigure8 runs a 400-path batched FatTree update under Monocle.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure8(experiments.Figure8Config{
			Paths: 400, BatchSize: 40, BatchEvery: 10 * time.Millisecond,
			UseMonocle: true, Seed: 8,
		})
		if res.Total == 0 {
			b.Fatal("nothing completed")
		}
	}
}

// BenchmarkFigure9Zoo colors a 40-topology Zoo subset per iteration.
func BenchmarkFigure9Zoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure9Zoo(500_000, 40)
		if len(res.Rows) != 40 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkProbeGenerationSingle isolates one probe generation on the
// Campus table (the §8.2 "few milliseconds" claim).
func BenchmarkProbeGenerationSingle(b *testing.B) {
	tb, rules := dataset.Generate(dataset.Campus())
	gen := probe.NewGenerator(probe.Config{
		Collect: flowtable.MatchAll().WithExact(header.VlanID, 1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gen.Generate(tb, rules[i%len(rules)])
	}
}

// benchSweepTable is the shared whole-table sweep workload: a
// Stanford-shaped ACL trimmed so one sweep stays benchmarkable (the
// cmd/experiments binary sweeps the full-size tables).
func benchSweepTable() (*flowtable.Table, []*flowtable.Rule) {
	p := dataset.Stanford()
	p.Rules = 600
	return dataset.Generate(p)
}

func benchSweepGenerator() *probe.Generator {
	return probe.NewGenerator(probe.Config{
		Collect: flowtable.MatchAll().WithExact(header.VlanID, 1),
	})
}

// BenchmarkProbeGenerationPerRuleLoop is the baseline the incremental
// engine is measured against: the one-shot Generate called for every rule
// of the table, re-encoding the CNF and building a fresh solver each time.
func BenchmarkProbeGenerationPerRuleLoop(b *testing.B) {
	tb, rules := benchSweepTable()
	gen := benchSweepGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules {
			_, _ = gen.Generate(tb, r)
		}
	}
}

// BenchmarkProbeGenerationIncremental sweeps the same table through one
// persistent probe.Session: the table encoding and solver are built once,
// each rule adds only its Distinguish delta plus assumptions.
func BenchmarkProbeGenerationIncremental(b *testing.B) {
	tb, rules := benchSweepTable()
	gen := benchSweepGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := gen.NewSession(tb)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rules {
			_, _ = sess.Generate(r)
		}
	}
}

// BenchmarkProbeGenerationBatch is the steady-state sweep workload:
// GenerateAll fans the scope-clustered incremental engine (shared block
// prefixes, learnt-clause/phase reuse within a cluster) out over all CPUs.
func BenchmarkProbeGenerationBatch(b *testing.B) {
	tb, _ := benchSweepTable()
	gen := benchSweepGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.GenerateAll(context.Background(), tb, 0)
	}
}

// BenchmarkSweepClusteringOff ablates the scope clustering: the same
// GenerateAll sweep, but rule-by-rule with an exact retract to base after
// every rule (the PR 1 engine).
func BenchmarkSweepClusteringOff(b *testing.B) {
	tb, _ := benchSweepTable()
	gen := probe.NewGenerator(probe.Config{
		Collect:           flowtable.MatchAll().WithExact(header.VlanID, 1),
		DisableClustering: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.GenerateAll(context.Background(), tb, 0)
	}
}

// BenchmarkSweepLearntReuseOff ablates the learnt-clause/phase reuse while
// keeping the clusters: shared prefixes stay attached, but the per-rule
// retract drops learnt clauses, activities, and saved phases.
func BenchmarkSweepLearntReuseOff(b *testing.B) {
	tb, _ := benchSweepTable()
	gen := probe.NewGenerator(probe.Config{
		Collect:            flowtable.MatchAll().WithExact(header.VlanID, 1),
		DisableLearntReuse: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.GenerateAll(context.Background(), tb, 0)
	}
}

// benchChurn swaps one rule of the table per epoch (delete + reinsert a
// fresh variant), modelling the Monitor's dynamic-update steady state.
func benchChurn(tb *flowtable.Table, rules []*flowtable.Rule, i int) {
	victim := rules[i%len(rules)]
	_ = tb.Delete(victim.ID)
	cp := victim.Clone()
	cp.ID = victim.ID
	_ = tb.Insert(cp)
}

// BenchmarkSessionCacheEpochSweep measures the Monitor-layer reuse: one
// rule of the table churns per epoch and the whole table is re-swept
// through the epoch-aware SessionCache, which recompiles only the churned
// rule instead of the whole library.
func BenchmarkSessionCacheEpochSweep(b *testing.B) {
	p := dataset.Stanford()
	p.Rules = 200
	tb, rules := dataset.Generate(p)
	gen := benchSweepGenerator()
	cache := gen.NewSessionCache(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurn(tb, rules, i)
		cache.GenerateAll(context.Background(), uint64(i+1), 0)
	}
}

// BenchmarkDynamicUpdateProbe measures the dynamic-monitoring path: one
// rule churns per epoch and only that rule's probe is generated, through
// the epoch-aware SessionCache (delta recompile of the churned rule).
func BenchmarkDynamicUpdateProbe(b *testing.B) {
	p := dataset.Stanford()
	p.Rules = 200
	tb, rules := dataset.Generate(p)
	gen := benchSweepGenerator()
	cache := gen.NewSessionCache(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurn(tb, rules, i)
		sess, err := cache.Session(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		r, _ := tb.Get(rules[i%len(rules)].ID)
		_, _ = sess.Generate(r)
	}
}

// BenchmarkDynamicUpdateProbeNoCache is the cache-off ablation of the
// dynamic path: the one-shot generator re-encodes the constraints for the
// churned rule from scratch (PR 1's dynamic path).
func BenchmarkDynamicUpdateProbeNoCache(b *testing.B) {
	p := dataset.Stanford()
	p.Rules = 200
	tb, rules := dataset.Generate(p)
	gen := benchSweepGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurn(tb, rules, i)
		r, _ := tb.Get(rules[i%len(rules)].ID)
		_, _ = gen.Generate(tb, r)
	}
}

// BenchmarkSessionCacheOffEpochSweep is the cache-off ablation: the same
// churn-then-sweep workload, recompiling the table library from scratch
// every epoch.
func BenchmarkSessionCacheOffEpochSweep(b *testing.B) {
	p := dataset.Stanford()
	p.Rules = 200
	tb, rules := dataset.Generate(p)
	gen := benchSweepGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurn(tb, rules, i)
		gen.GenerateAll(context.Background(), tb, 0)
	}
}

// buildFleet assembles the BenchmarkFleetSweep workload: n switches with
// `rules` ACL rules each (per-switch table variants), under one worker
// budget.
func buildFleet(b *testing.B, n, rules, workers int) *monocle.Fleet {
	fleet := monocle.NewFleet(monocle.WithWorkers(workers))
	p := dataset.Stanford()
	p.Rules = rules
	for id := uint32(1); id <= uint32(n); id++ {
		pv := p
		pv.Seed = int64(id) * 104729
		v, err := fleet.AddSwitch(id)
		if err != nil {
			b.Fatal(err)
		}
		_, tableRules := dataset.Generate(pv)
		if err := v.Install(tableRules...); err != nil {
			b.Fatal(err)
		}
	}
	return fleet
}

// BenchmarkFleetSweep is the sharded multi-switch sweep service workload:
// 8 switches x 200 rules swept through one Fleet per iteration, for
// several fleet-wide worker budgets (0 = all CPUs). The first sweep of an
// iteration compiles each member's table library; steady-state re-sweeps
// are measured by BenchmarkFleetResweep.
func BenchmarkFleetSweep(b *testing.B) {
	for _, workers := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fleet := buildFleet(b, 8, 200, workers)
				b.StartTimer()
				if n := len(fleet.Sweep(context.Background())); n != 8*200 {
					b.Fatalf("swept %d results", n)
				}
			}
		})
	}
}

// BenchmarkFleetResweep measures the steady-state cadence of the sweep
// service: tables already compiled, one rule of one member churning per
// iteration, whole fleet re-swept through the epoch-aware caches. Only
// the churned member re-solves; the other seven answer from their
// session caches' sweep memos.
func BenchmarkFleetResweep(b *testing.B) {
	fleet := buildFleet(b, 8, 200, 0)
	fleet.Sweep(context.Background()) // compile + prewarm
	victim, _ := fleet.Verifier(1)
	rules := victim.Rules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rules[i%len(rules)]
		if _, err := victim.Delete(r.ID); err != nil && !errors.Is(err, monocle.ErrUnmonitorable) {
			b.Fatal(err)
		}
		if err := victim.Install(r); err != nil {
			b.Fatal(err)
		}
		if n := len(fleet.Sweep(context.Background())); n != 8*200 {
			b.Fatalf("swept %d results", n)
		}
	}
}

// BenchmarkFleetResweepUnchanged measures the sweep memo itself: the
// same 8x200 fleet re-swept with no table change between rounds, so
// every member answers from its session cache's memo of the last sweep.
func BenchmarkFleetResweepUnchanged(b *testing.B) {
	fleet := buildFleet(b, 8, 200, 0)
	fleet.Sweep(context.Background()) // compile + first solve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(fleet.Sweep(context.Background())); n != 8*200 {
			b.Fatalf("swept %d results", n)
		}
	}
}

// roundService builds the BenchmarkServiceRoundUnchanged workload: a
// Service over n SimBackend switches holding `rules` Stanford-shaped
// rules each (seed = switch id), after one warm-up round that compiles
// every member's table library and fills its sweep memo.
func roundService(tb testing.TB, n, rules int) *monocle.Service {
	tb.Helper()
	svc := monocle.NewService()
	tb.Cleanup(func() { svc.Close() })
	for id := uint32(1); id <= uint32(n); id++ {
		if _, err := svc.Fleet().AddBackend(monocle.NewSimBackend(id)); err != nil {
			tb.Fatal(err)
		}
		if err := svc.InstallRules(id, datasetRules(rules, int64(id))...); err != nil {
			tb.Fatal(err)
		}
	}
	svc.SweepRound(context.Background())
	return svc
}

// BenchmarkServiceRoundUnchanged measures one whole SweepRound (plan,
// memoized generation, observation on the simulated data planes, Differ
// fold, publish) over an 8x200 fleet whose tables never change, so the
// fold and publish layers are not hidden behind solver work.
func BenchmarkServiceRoundUnchanged(b *testing.B) {
	svc := roundService(b, 8, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.SweepRound(context.Background())
	}
	b.StopTimer()
	if n := svc.Metrics().LastRoundRules; n != 8*200 {
		b.Fatalf("swept %d rules", n)
	}
}

// BenchmarkSATSolverProbeShape measures the raw SAT backend on a
// probe-shaped instance (hundreds of vars, unit-heavy clauses).
func BenchmarkSATSolverProbeShape(b *testing.B) {
	enc := cnf.NewEncoder(header.TotalBits)
	var lits []*cnf.Formula
	for i := 1; i <= 64; i++ {
		lits = append(lits, cnf.Lit(i))
	}
	enc.Assert(cnf.Or(lits...))
	for i := 65; i < 128; i++ {
		enc.Assert(cnf.Or(cnf.Lit(-i), cnf.Lit(i+1)))
	}
	vec := enc.Vector()
	n := enc.NumVars()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, _, err := sat.SolveVector(n, vec); err != nil || st != sat.Satisfiable {
			b.Fatal("solve failed")
		}
	}
}

// timedStore sums the time the rule-op path spends in its Store.
type timedStore struct {
	monocle.Store
	spent time.Duration
}

func (s *timedStore) SaveRules(id uint32, epoch uint64, rules []monocle.RuleSpec) error {
	defer s.time(time.Now())
	return s.Store.SaveRules(id, epoch, rules)
}

func (s *timedStore) SaveRuleOp(id uint32, epoch uint64, op monocle.RuleOp) error {
	defer s.time(time.Now())
	return s.Store.SaveRuleOp(id, epoch, op)
}

func (s *timedStore) time(start time.Time) { s.spent += time.Since(start) }

// BenchmarkRuleOpPersist measures one rule op's persistence: ApplyRule
// add+delete pairs of a top-priority rule on one SimBackend switch holding
// a Stanford-shaped table of 200 or 2,755 rules, with a FileStore and
// without a store. The difference between the two is the pair's persist
// cost; with a FileStore, persist-ns/op reads the time spent inside the
// store directly (compaction included). With one WAL record per op it
// does not grow with the table.
func BenchmarkRuleOpPersist(b *testing.B) {
	for _, n := range []int{200, 2755} {
		for _, store := range []string{"none", "file"} {
			b.Run(fmt.Sprintf("rules=%d/store=%s", n, store), func(b *testing.B) {
				var opts []monocle.Option
				var ts *timedStore
				if store == "file" {
					fs, err := monocle.OpenFileStore(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					ts = &timedStore{Store: fs}
					opts = append(opts, monocle.WithStore(ts))
				}
				svc := monocle.NewService(opts...)
				defer svc.Close()
				if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: 1}); err != nil {
					b.Fatal(err)
				}
				p := dataset.Stanford()
				p.Rules = n
				_, rules := dataset.Generate(p)
				if err := svc.InstallRules(1, rules...); err != nil {
					b.Fatal(err)
				}
				if ts != nil {
					ts.spent = 0
				}
				add := monocle.RuleOp{Op: "add", Rule: &monocle.RuleSpec{ID: 1 << 40, Priority: n + 100,
					Match:   map[string]string{"dl_type": "0x800", "nw_src": "192.0.2.1"},
					Actions: []monocle.ActionSpec{{Output: 99}}}}
				del := monocle.RuleOp{Op: "delete", ID: 1 << 40}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if reply, err := svc.ApplyRule(1, add); err != nil || reply.Verdict != "confirmed" {
						b.Fatalf("add: %+v, %v", reply, err)
					}
					if reply, err := svc.ApplyRule(1, del); err != nil || reply.Verdict != "absent" {
						b.Fatalf("delete: %+v, %v", reply, err)
					}
				}
				if ts != nil {
					b.StopTimer()
					b.ReportMetric(float64(ts.spent.Nanoseconds())/float64(b.N), "persist-ns/op")
				}
			})
		}
	}
}
