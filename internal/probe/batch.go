package probe

// Batch probe generation: a worker pool of forked Sessions sweeping every
// rule of a table, used by steady-state monitoring and the experiment
// harnesses. Work is scheduled cluster-by-cluster (see cluster.go): a
// worker claims a whole scope cluster, attaches its shared block prefix
// once, and solves the member rules back to back with learnt-clause,
// phase, and activity reuse between them. Because clusters are planned
// deterministically, processed atomically in member order, and always
// start from an exactly-restored base state, the probe set is bit-
// identical regardless of how many workers run or how clusters are
// scheduled onto them.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"monocle/internal/flowtable"
)

// Result is the outcome of generating a probe for one rule of a table.
type Result struct {
	// Rule is the probed rule (always set).
	Rule *flowtable.Rule
	// Probe is the generated probe; nil when Err is set.
	Probe *Probe
	// Err reports why no probe exists: ErrUnmonitorable,
	// ErrRewritesProbeField, a context error, or an internal failure.
	Err error
}

// WorkerStats aggregates one sweep worker's solver effort, for benchmarks
// and cmd/probegen's -stats reporting.
type WorkerStats struct {
	Worker       int
	Rules        int
	Clusters     int
	Decisions    int64
	Propagations int64
	Conflicts    int64
}

// GenerateAll generates probes for every rule of the table, in the table's
// priority order, fanning the work out over `parallelism` workers
// (parallelism <= 0 means GOMAXPROCS). Each worker holds its own forked
// Session, so the per-table encoding is built once and every solve runs
// incrementally. Cancelling the context stops the sweep early; rules not
// processed by then carry the context's error.
func (g *Generator) GenerateAll(ctx context.Context, table *flowtable.Table, parallelism int) []Result {
	res, _ := g.GenerateAllStats(ctx, table, parallelism)
	return res
}

// GenerateAllStats is GenerateAll surfacing per-worker solver statistics
// (decisions/propagations/conflicts and the cluster/rule split).
func (g *Generator) GenerateAllStats(ctx context.Context, table *flowtable.Table, parallelism int) ([]Result, []WorkerStats) {
	rules := table.Rules()
	results := make([]Result, len(rules))
	for i, r := range rules {
		results[i].Rule = r
	}
	if len(rules) == 0 {
		return results, nil
	}
	root, err := g.NewSession(table)
	if err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results, nil
	}
	stats, err := root.generateAllInto(ctx, results, nil, parallelism)
	if err != nil {
		for i := range results {
			results[i].Err = err
		}
	}
	return results, stats
}

// generateAllInto runs the clustered sweep for the session's table,
// writing into results (indexed like s.rules). A non-nil pick limits the
// sweep to the rules it marks (indexed like s.rules); the others are left
// untouched. The session itself serves as worker 0 and is returned to its
// base state afterwards, so a cached session (SessionCache) can sweep
// repeatedly.
func (s *Session) generateAllInto(ctx context.Context, results []Result, pick []bool, parallelism int) ([]WorkerStats, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	if s.g.cfg.DisableClustering {
		return s.sweepUnclustered(ctx, results, pick, parallelism)
	}

	clusters := pickClusters(s.clusterPlan(), pick)
	if parallelism > len(clusters) {
		parallelism = len(clusters)
	}
	sessions, err := s.workerSessions(parallelism)
	if err != nil {
		return nil, err
	}

	stats := make([]WorkerStats, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, sess := range sessions {
		wg.Add(1)
		go func(w int, sess *Session) {
			defer wg.Done()
			ws := &stats[w]
			ws.Worker = w
			d0, p0, c0 := sess.solver.Stats()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(clusters) {
					break
				}
				c := &clusters[ci]
				if err := ctx.Err(); err != nil {
					for _, m := range c.members {
						results[m.idx].Err = err
					}
					continue
				}
				sess.beginCluster(c)
				for mi := range c.members {
					m := &c.members[mi]
					if err := ctx.Err(); err != nil {
						results[m.idx].Err = err
						continue
					}
					if m.err != nil {
						results[m.idx].Err = m.err
						continue
					}
					results[m.idx].Probe, results[m.idx].Err = sess.generate(s.rules[m.idx], m.scope, m)
					ws.Rules++
				}
				sess.endCluster()
				ws.Clusters++
			}
			d1, p1, c1 := sess.solver.Stats()
			ws.Decisions, ws.Propagations, ws.Conflicts = d1-d0, p1-p0, c1-c0
		}(w, sess)
	}
	wg.Wait()
	return stats, nil
}

// pickClusters filters a cluster plan down to the picked members (nil
// pick: the whole plan). A cluster's prefix is shared by every member, so
// it stays a valid prefix for any subset of them, and each kept member
// keeps its own suffix; clusters left empty are dropped. Because the
// filtered clusters are still processed atomically from an exact base
// restore, a subset sweep is as deterministic across worker counts as a
// whole-table one, and a pick of every rule is the whole-table sweep.
func pickClusters(plan []cluster, pick []bool) []cluster {
	if pick == nil {
		return plan
	}
	var out []cluster
	for _, c := range plan {
		var members []clusterMember
		for _, m := range c.members {
			if pick[m.idx] {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			out = append(out, cluster{prefix: c.prefix, members: members})
		}
	}
	return out
}

// sweepUnclustered is the ablation path (DisableClustering): the PR-1
// engine, one rule at a time through the classic Generate with an exact
// retract to base after every rule.
func (s *Session) sweepUnclustered(ctx context.Context, results []Result, pick []bool, parallelism int) ([]WorkerStats, error) {
	todo := make([]int, 0, len(s.rules))
	for i := range s.rules {
		if pick == nil || pick[i] {
			todo = append(todo, i)
		}
	}
	if parallelism > len(todo) {
		parallelism = len(todo)
	}
	sessions, err := s.workerSessions(parallelism)
	if err != nil {
		return nil, err
	}
	stats := make([]WorkerStats, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, sess := range sessions {
		wg.Add(1)
		go func(w int, sess *Session) {
			defer wg.Done()
			ws := &stats[w]
			ws.Worker = w
			d0, p0, c0 := sess.solver.Stats()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(todo) {
					break
				}
				i := todo[n]
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				results[i].Probe, results[i].Err = sess.Generate(s.rules[i])
				ws.Rules++
			}
			d1, p1, c1 := sess.solver.Stats()
			ws.Decisions, ws.Propagations, ws.Conflicts = d1-d0, p1-p0, c1-c0
		}(w, sess)
	}
	wg.Wait()
	return stats, nil
}

// workerSessions returns n sessions with s itself first and n-1 forks.
func (s *Session) workerSessions(n int) ([]*Session, error) {
	if n < 1 {
		n = 1
	}
	sessions := make([]*Session, n)
	sessions[0] = s
	for w := 1; w < n; w++ {
		fork, err := s.Fork()
		if err != nil {
			return nil, err
		}
		sessions[w] = fork
	}
	return sessions, nil
}
