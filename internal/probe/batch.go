package probe

// Batch probe generation: a worker pool of forked Sessions sweeping rules
// of a table, used by steady-state monitoring and the experiment
// harnesses. Work is scheduled cluster-by-cluster (see cluster.go): a
// worker claims a whole scope cluster, attaches its shared block prefix
// once, and solves the member rules back to back with learnt-clause,
// phase, and activity reuse between them. Each cluster starts from the
// state a new session's solver has, so the work counts a sweep reports
// are the same for any number of workers. None of that can move a probe:
// the solver decides the header bits first toward a fixed reference
// (referencePhase), so each probe header is the first one its rule's
// constraints admit, and the probe set is bit-identical however the rules
// are clustered, how many workers run, or which rules are swept together.

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
	// repaired reports that the header took a spare value chosen from
	// the whole table (repairDomains), so the result depends on more
	// than the rule's overlap set.
	repaired bool
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
	stats, err := root.generateAllInto(ctx, rules, results, parallelism)
	if err != nil {
		for i := range results {
			results[i].Err = err
		}
	}
	return results, stats
}

// generateAllInto runs the clustered sweep over rules of the session's
// table, writing results[i] for rules[i]. The cluster plan covers exactly
// these rules. The session itself serves as worker 0 and is returned to
// its base state afterwards, so a cached session (SessionCache) can sweep
// repeatedly.
func (s *Session) generateAllInto(ctx context.Context, rules []*flowtable.Rule, results []Result, parallelism int) ([]WorkerStats, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	clusters := s.planClusters(rules)
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
					results[m.idx] = sess.generate(rules[m.idx], m)
					sess.solver.RetractToReuse(sess.clusterCp)
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
