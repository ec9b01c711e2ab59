package probe

// SessionCache keeps the expensive per-table compilation (the
// tableLibrary: base clauses, per-atom and per-rule definition blocks,
// match literals) alive across changes to the table, so a Monitor that
// inserts or deletes a handful of rules per epoch does not recompile the
// whole library before its next probe generation. On epoch change the
// cache diffs the table against what it compiled, appends definition
// regions for new (or re-matched) rules only, forgets dropped ones, and
// hands out a fresh Session over the updated library — session
// construction itself is cheap (an encoder fork plus replaying the tiny
// base into a new solver).
//
// Deleted rules leave their blocks behind as garbage (atoms may be shared
// with live rules); once too much garbage accumulates the cache rebuilds
// the library from scratch, which also compacts the encoder's variable
// space.
//
// The cache also keeps its last complete sweep. A GenerateAllStats call at
// the same epoch over the same id set (nil, the whole table, is not the
// same set as an empty subset) returns a copy of those results with nil
// WorkerStats and no solver work: every table change bumps the owner's
// epoch, so a re-solve would return the identical probes. The copy shares
// the immutable Probes. The memo is dropped when the epoch moves on, and
// a cancelled or failed sweep is never kept.
//
// A SessionCache is not safe for concurrent use. It is designed for the
// Monitor's single-threaded event loop: sessions it returns are valid
// until the next table change, and the GenerateAll sweep it offers runs
// its parallel workers to completion before returning.

import (
	"context"
	"slices"

	"monocle/internal/flowtable"
)

// SessionCache hands out probe Sessions over one mutable table, keyed by
// the owner's table-change epoch.
type SessionCache struct {
	g     *Generator
	table *flowtable.Table

	b     *libraryBuilder
	known map[uint64]flowtable.Match // rule ID → match as compiled
	sess  *Session
	epoch uint64
	valid bool // sess matches the table state at `epoch`

	memo    []Result // last complete sweep at `epoch`; nil: none
	memoIDs []uint64 // its id set (nil: the whole table)

	// Stats counts cache activity (benchmarks, tests, -stats reporting).
	Stats CacheStats
}

// CacheStats counts SessionCache activity. The JSON form feeds the
// monocled /metrics endpoint.
type CacheStats struct {
	// Hits are Session calls answered with the cached session, sweeps
	// answered from the memo of the last sweep included.
	Hits int `json:"hits"`
	// Syncs are epoch changes that re-synced the library.
	Syncs int `json:"syncs"`
	// DeltaRules counts rules (re)compiled incrementally across syncs.
	DeltaRules int `json:"delta_rules"`
	// Rebuilds counts full library rebuilds (garbage compaction).
	Rebuilds int `json:"rebuilds"`
}

// NewSessionCache creates a cache bound to the given (live) table. The
// library is compiled lazily on first use.
func (g *Generator) NewSessionCache(table *flowtable.Table) *SessionCache {
	return &SessionCache{g: g, table: table}
}

// Session returns a Session for the table's current rule set. The caller
// passes its table-change epoch: as long as it does not change, the same
// session is returned without any table scan; when it changes, the
// library is delta-recompiled and a fresh session built.
func (c *SessionCache) Session(epoch uint64) (*Session, error) {
	if c.valid && c.epoch == epoch && c.sess != nil {
		c.Stats.Hits++
		return c.sess, nil
	}
	if err := c.sync(); err != nil {
		return nil, err
	}
	c.epoch = epoch
	c.valid = true
	return c.sess, nil
}

// GenerateAll sweeps every rule of the table through the cached library,
// exactly like Generator.GenerateAll but without recompiling unchanged
// rules. Errors building the session are reported per rule, mirroring
// Generator.GenerateAll.
func (c *SessionCache) GenerateAll(ctx context.Context, epoch uint64, parallelism int) []Result {
	res, _ := c.GenerateAllStats(ctx, epoch, nil, parallelism)
	return res
}

// GenerateAllStats is GenerateAll over the rules named by ids (nil: the
// whole table), surfacing per-worker solver statistics. A subset runs
// the same clustered sweep with the cached cluster plan filtered down to
// its members, so the probe set is bit-identical for any worker count and
// a subset naming every rule yields exactly the whole-table probes.
// Results come in table priority order; ids not in the table are
// skipped. A repeat of the last complete sweep (same epoch, same ids) is
// answered from its memo: a fresh copy of the slice sharing the immutable
// Probes, with nil WorkerStats.
func (c *SessionCache) GenerateAllStats(ctx context.Context, epoch uint64, ids []uint64, parallelism int) ([]Result, []WorkerStats) {
	sess, err := c.Session(epoch)
	if err == nil && ctx.Err() == nil && c.memo != nil &&
		(ids == nil) == (c.memoIDs == nil) && slices.Equal(ids, c.memoIDs) {
		return slices.Clone(c.memo), nil
	}
	var rules []*flowtable.Rule
	if err == nil {
		rules = sess.rules
	} else {
		rules = c.table.Rules()
	}
	var pick []bool
	if ids != nil {
		want := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		pick = make([]bool, len(rules))
		for i, r := range rules {
			pick[i] = want[r.ID]
		}
	}
	results := make([]Result, len(rules))
	for i, r := range rules {
		results[i] = Result{Rule: r, Err: err}
	}
	var stats []WorkerStats
	if err == nil && len(results) > 0 {
		if stats, err = sess.generateAllInto(ctx, results, pick, parallelism); err != nil {
			for i := range results {
				results[i].Err = err
			}
		}
	}
	out := results
	if pick != nil {
		out = results[:0]
		for i := range results {
			if pick[i] {
				out = append(out, results[i])
			}
		}
	}
	if err == nil && ctx.Err() == nil {
		c.memo, c.memoIDs = slices.Clone(out), slices.Clone(ids)
	}
	return out, stats
}

// rebuildThreshold: a full rebuild happens once the dropped-rule count
// exceeds this fraction-ish bound relative to the live table.
func (c *SessionCache) needsRebuild(live int) bool {
	return c.b != nil && c.b.removed > live/2+8
}

// sync brings the compiled library in line with the table's current rule
// set: drop vanished rules, (re)compile new or re-matched ones, rebuild
// wholesale when the garbage threshold is crossed, and construct the new
// session.
func (c *SessionCache) sync() error {
	c.memo, c.memoIDs = nil, nil
	rules := c.table.Rules()
	if c.b == nil || c.needsRebuild(len(rules)) {
		if c.b != nil {
			c.Stats.Rebuilds++
		}
		c.b = c.g.newLibraryBuilder()
		c.known = make(map[uint64]flowtable.Match, len(rules))
		c.sess = nil // bound to the replaced builder's encoder/library
	}
	c.Stats.Syncs++

	// Drop rules that vanished or changed their match (add-or-replace
	// reuses rule IDs).
	for id, match := range c.known {
		r, ok := c.table.Get(id)
		if ok && r.Match.Equal(match) {
			continue
		}
		c.b.dropRule(id)
		delete(c.known, id)
	}
	// Compile the newcomers, in table priority order (deterministic
	// variable assignment for a given insertion history).
	for _, r := range rules {
		if _, ok := c.known[r.ID]; ok {
			continue
		}
		if err := c.b.addRule(r); err != nil {
			c.sess = nil
			c.valid = false
			return err
		}
		c.known[r.ID] = r.Match
		c.Stats.DeltaRules++
	}

	// The cached session shares the builder's encoder, so a delta
	// recompile only re-anchors it; a fresh session is built only after a
	// rebuild (or on first use).
	if c.sess != nil {
		c.sess.refreshLibrary(c.table, rules)
		return nil
	}
	sess, err := c.b.newSession(c.table, rules)
	if err != nil {
		c.sess = nil
		c.valid = false
		return err
	}
	c.sess = sess
	return nil
}
