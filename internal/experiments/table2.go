package experiments

// Table 2: probe generation time and success rate on the two ACL rule
// sets (§8.2). Times here are real (wall-clock) measurements of this
// implementation's generator, reported exactly like the paper's rows:
// average ms, max ms, probes found / total rules.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
	"monocle/internal/probe"
)

// Table2Row is one dataset's result.
type Table2Row struct {
	Dataset string
	AvgMS   float64
	MaxMS   float64
	Found   int
	Total   int
}

// Table2Config parameterizes the run.
type Table2Config struct {
	// Limit caps the number of rules probed per dataset (0 = all);
	// tests use a cap to stay fast.
	Limit int
	// SkipOverlapFilter runs the §5.4 ablation variant.
	SkipOverlapFilter bool
	// Incremental routes every generation through one persistent
	// probe.Session per dataset instead of the one-shot path, measuring
	// the amortized per-rule latency of the incremental engine.
	Incremental bool
}

// RunTable2 generates a probe for every rule of both datasets.
func RunTable2(cfg Table2Config) []Table2Row {
	var rows []Table2Row
	for _, prof := range []dataset.Profile{dataset.Stanford(), dataset.Campus()} {
		tb, rules := dataset.Generate(prof)
		rows = append(rows, runTable2Dataset(prof.Name, tb, rules, cfg))
	}
	return rows
}

// table2Config is the generator setup both Table 2 runs use: switch 1's
// probe configuration over the whole in_port domain (tag 1 is always
// valid).
func table2Config() probe.Config {
	cfg, _ := probe.SwitchConfig(1, nil, false)
	return cfg
}

func runTable2Dataset(name string, tb *flowtable.Table, rules []*flowtable.Rule, cfg Table2Config) Table2Row {
	pcfg := table2Config()
	pcfg.SkipOverlapFilter = cfg.SkipOverlapFilter
	gen := probe.NewGenerator(pcfg)
	row := Table2Row{Dataset: name}
	var total time.Duration
	var max time.Duration
	n := len(rules)
	if cfg.Limit > 0 && cfg.Limit < n {
		n = cfg.Limit
	}
	generate := func(r *flowtable.Rule) (*probe.Probe, error) { return gen.Generate(tb, r) }
	if cfg.Incremental {
		sess, err := gen.NewSession(tb)
		if err != nil {
			panic(fmt.Sprintf("table2: session setup: %v", err))
		}
		generate = sess.Generate
	}
	for _, r := range rules[:n] {
		start := time.Now()
		_, err := generate(r)
		el := time.Since(start)
		total += el
		if el > max {
			max = el
		}
		row.Total++
		if err == nil {
			row.Found++
		} else if !errors.Is(err, probe.ErrUnmonitorable) {
			panic(fmt.Sprintf("table2: unexpected generator error: %v", err))
		}
	}
	if row.Total > 0 {
		row.AvgMS = total.Seconds() * 1000 / float64(row.Total)
	}
	row.MaxMS = max.Seconds() * 1000
	return row
}

// Table2SweepRow is one dataset's whole-table batch sweep result: the
// steady-state workload of probing every installed rule, run through the
// incremental parallel engine.
type Table2SweepRow struct {
	Dataset   string
	Rules     int
	Found     int
	Workers   int
	WallMS    float64
	PerRuleMS float64
}

// RunTable2Sweep sweeps both datasets with Generator.GenerateAll. Limit
// caps the table size (0 = full dataset); parallelism <= 0 uses all CPUs.
func RunTable2Sweep(limit, parallelism int) []Table2SweepRow {
	var rows []Table2SweepRow
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	for _, prof := range []dataset.Profile{dataset.Stanford(), dataset.Campus()} {
		if limit > 0 && limit < prof.Rules {
			prof.Rules = limit
		}
		tb, _ := dataset.Generate(prof)
		gen := probe.NewGenerator(table2Config())
		start := time.Now()
		results := gen.GenerateAll(context.Background(), tb, parallelism)
		wall := time.Since(start)
		row := Table2SweepRow{Dataset: prof.Name, Rules: len(results), Workers: parallelism}
		for _, res := range results {
			if res.Err == nil {
				row.Found++
			} else if !errors.Is(res.Err, probe.ErrUnmonitorable) {
				panic(fmt.Sprintf("table2 sweep: unexpected generator error: %v", res.Err))
			}
		}
		row.WallMS = wall.Seconds() * 1000
		if row.Rules > 0 {
			row.PerRuleMS = row.WallMS / float64(row.Rules)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable2Sweep renders the sweep rows.
func FormatTable2Sweep(rows []Table2SweepRow) string {
	out := "Table 2 (sweep): whole-table batch probe generation\n"
	out += fmt.Sprintf("  %-10s %7s %7s %8s %10s %12s\n", "Data set", "rules", "found", "workers", "wall [ms]", "ms per rule")
	for _, r := range rows {
		out += fmt.Sprintf("  %-10s %7d %7d %8d %10.1f %12.3f\n", r.Dataset, r.Rules, r.Found, r.Workers, r.WallMS, r.PerRuleMS)
	}
	return out
}

// FormatTable2 renders the table like the paper.
func FormatTable2(rows []Table2Row) string {
	out := "Table 2: probe generation time\n"
	out += fmt.Sprintf("  %-10s %8s %8s %15s\n", "Data set", "avg [ms]", "max [ms]", "probes found")
	for _, r := range rows {
		out += fmt.Sprintf("  %-10s %8.2f %8.2f %7d / %d\n", r.Dataset, r.AvgMS, r.MaxMS, r.Found, r.Total)
	}
	return out
}
