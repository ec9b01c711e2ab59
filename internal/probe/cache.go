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
// The cache also keeps each rule's last result. A probe is a function of
// the rule, its overlap set, the table miss and the configuration (the
// solver's static header decision order makes it so; see referencePhase),
// so the result stays valid until a table change touches one of those.
// Each sync diffs every rule's (priority, match, actions) against what
// the previous sync saw and drops the result of every changed, added or
// removed rule and of every rule overlapping a changed rule's old or new
// match; a change of the table miss drops every result, and a change to
// the matches on a spare-value field (repairDomains) drops every result
// whose header took a spare value. GenerateAllStats and Generate answer
// the remaining rules from their results, sharing the immutable Probes,
// and solve only the others. No caller has to say what changed, but every
// table change must bump the owner's epoch, which is what triggers the
// sync.
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
	known map[uint64]*ruleMemo // rule ID → the rule as the last sync saw it
	miss  flowtable.TableMiss  // the table miss the last sync saw
	sess  *Session
	epoch uint64
	valid bool // sess matches the table state at `epoch`

	// Stats counts cache activity (benchmarks, tests, -stats reporting).
	Stats CacheStats
}

// ruleMemo is what the cache remembers of one rule: the rule the last sync
// saw under its id (a replacing add installs a new rule under the same id;
// a table rule's priority and match never change) and its last result.
type ruleMemo struct {
	rule     *flowtable.Rule
	actions  []flowtable.Action // a copy: Table.Modify swaps the rule's actions
	compiled bool               // match compiled into the current library
	res      Result
	solved   bool // res holds the rule's result for the current table
}

// CacheStats counts SessionCache activity. The JSON form feeds the
// monocled /metrics endpoint.
type CacheStats struct {
	// Hits are Session calls answered with the cached session.
	Hits int `json:"hits"`
	// Syncs are epoch changes that re-synced the library.
	Syncs int `json:"syncs"`
	// DeltaRules counts rules (re)compiled incrementally across syncs.
	DeltaRules int `json:"delta_rules"`
	// Rebuilds counts full library rebuilds (garbage compaction).
	Rebuilds int `json:"rebuilds"`
	// Solved counts rules actually solved; results answered from a
	// rule's last result are not counted.
	Solved int `json:"solved"`
}

// NewSessionCache creates a cache bound to the given (live) table. The
// library is compiled lazily on first use.
func (g *Generator) NewSessionCache(table *flowtable.Table) *SessionCache {
	return &SessionCache{g: g, table: table, known: make(map[uint64]*ruleMemo)}
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
// rules or re-solving rules no table change touched. Errors building the
// session are reported per rule, mirroring Generator.GenerateAll.
func (c *SessionCache) GenerateAll(ctx context.Context, epoch uint64, parallelism int) []Result {
	res, _ := c.GenerateAllStats(ctx, epoch, nil, parallelism)
	return res
}

// GenerateAllStats is GenerateAll over the rules named by ids (nil: the
// whole table), surfacing per-worker solver statistics. Rules with a
// result still valid for the table are answered from it (sharing the
// immutable Probe); the others run one clustered sweep planned over them
// alone. The stats cover only that sweep and are nil when every rule was
// answered. Results come in table priority order, bit-identical for any
// worker count and for any history of the table; ids not in the table are
// skipped. A cancelled sweep keeps nothing.
func (c *SessionCache) GenerateAllStats(ctx context.Context, epoch uint64, ids []uint64, parallelism int) ([]Result, []WorkerStats) {
	sess, err := c.Session(epoch)
	var rules []*flowtable.Rule
	if err == nil {
		rules = sess.rules
	} else {
		rules = c.table.Rules()
	}
	if ids != nil {
		want := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		picked := make([]*flowtable.Rule, 0, len(ids))
		for _, r := range rules {
			if want[r.ID] {
				picked = append(picked, r)
			}
		}
		rules = picked
	}
	results := make([]Result, len(rules))
	if err != nil {
		for i, r := range rules {
			results[i] = Result{Rule: r, Err: err}
		}
		return results, nil
	}
	var todo []*flowtable.Rule
	var at []int // at[k]: the index in results of todo[k]
	for i, r := range rules {
		if m := c.known[r.ID]; m.solved {
			results[i] = m.res
			continue
		}
		results[i].Rule = r
		todo = append(todo, r)
		at = append(at, i)
	}
	if len(todo) == 0 {
		return results, nil
	}
	solved := make([]Result, len(todo))
	for k, r := range todo {
		solved[k].Rule = r
	}
	stats, err := sess.generateAllInto(ctx, todo, solved, parallelism)
	if err != nil {
		for k := range solved {
			solved[k].Err = err
		}
	}
	for _, ws := range stats {
		c.Stats.Solved += ws.Rules
	}
	keep := err == nil && ctx.Err() == nil
	for k, res := range solved {
		results[at[k]] = res
		if keep {
			c.remember(res)
		}
	}
	return results, stats
}

// remember stores res as its rule's result for the current table.
func (c *SessionCache) remember(res Result) {
	if m := c.known[res.Rule.ID]; m != nil && m.rule == res.Rule {
		m.res, m.solved = res, true
	}
}

// rebuildThreshold: a full rebuild happens once the dropped-rule count
// exceeds this fraction-ish bound relative to the live table.
func (c *SessionCache) needsRebuild(live int) bool {
	return c.b != nil && c.b.removed > live/2+8
}

// sync brings the cache in line with the table's current rule set: drop
// the results a change touched (invalidate), rebuild the library wholesale
// when the garbage threshold is crossed, (re)compile new or re-matched
// rules, and re-anchor or construct the session.
func (c *SessionCache) sync() error {
	rules := c.table.Rules()
	if c.b == nil || c.needsRebuild(len(rules)) {
		if c.b != nil {
			c.Stats.Rebuilds++
		}
		c.b = c.g.newLibraryBuilder()
		for _, m := range c.known {
			m.compiled = false
		}
		c.sess = nil // bound to the replaced builder's encoder/library
	}
	c.Stats.Syncs++
	c.invalidate(rules)

	// Compile the newcomers, in table priority order (deterministic
	// variable assignment for a given insertion history).
	for _, r := range rules {
		m := c.known[r.ID]
		if m.compiled {
			continue
		}
		if err := c.b.addRule(r); err != nil {
			c.sess = nil
			c.valid = false
			return err
		}
		m.compiled = true
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

// invalidate records the table's current rules in known and drops the
// results the changes since the last sync touched. A rule whose match
// changed, or that vanished, is also dropped from the library.
func (c *SessionCache) invalidate(rules []*flowtable.Rule) {
	var touched []touch
	for _, r := range rules {
		m := c.known[r.ID]
		switch {
		case m == nil:
			m = &ruleMemo{}
			c.known[r.ID] = m
			touched = append(touched, touch{match: r.Match})
		case m.rule == r:
			if actionsEqual(m.actions, r.Actions) {
				continue
			}
			_, before := c.g.reservedRewrite(m.actions)
			_, after := c.g.reservedRewrite(r.Actions)
			touched = append(touched, touch{match: r.Match, actionsOnly: !before && !after, priority: r.Priority})
		default:
			touched = append(touched, touch{match: m.rule.Match}, touch{match: r.Match})
			if m.compiled && m.rule.Match != r.Match {
				c.b.dropRule(r.ID)
				m.compiled = false
			}
		}
		m.rule = r
		m.actions = cloneActions(r.Actions)
		m.solved, m.res = false, Result{}
	}
	if len(c.known) > len(rules) {
		for id, m := range c.known {
			if r, ok := c.table.Get(id); ok && r == m.rule {
				continue
			}
			touched = append(touched, touch{match: m.rule.Match})
			if m.compiled {
				c.b.dropRule(id)
			}
			delete(c.known, id)
		}
	}
	missChanged := c.table.Miss != c.miss
	c.miss = c.table.Miss
	if len(touched) == 0 && !missChanged {
		return
	}
	spare := c.g.touchesSpareField(touched)
	for _, r := range rules {
		m := c.known[r.ID]
		if !m.solved {
			continue
		}
		dirty := missChanged || (spare && m.res.repaired)
		for i := 0; !dirty && i < len(touched); i++ {
			t := &touched[i]
			dirty = (!t.actionsOnly || r.Priority > t.priority) && r.Match.Overlaps(t.match)
		}
		if dirty {
			m.solved, m.res = false, Result{}
		}
	}
}

// touch is one rule change's reach: the rules overlapping match lose
// their results. When only the actions of a rule changed, only the rules
// above it do: a rule's actions enter the probes of the higher-priority
// rules it would catch the probe for (Distinguish, the absent outcome),
// while a lower-priority rule's probe only has to miss its match. The
// exception is a rewrite of a reserved field before or after the change:
// it fails the probe of every rule with the rule in scope, below it too
// (ErrRewritesProbeField), so such a change reaches every overlapping rule.
type touch struct {
	match       flowtable.Match
	actionsOnly bool
	priority    int
}

// touchesSpareField reports whether a changed match constrains a field
// repairDomains may draw a spare value for: changing such a match can
// change the spare value, or the lemma's applicability, for every
// repaired header.
func (g *Generator) touchesSpareField(touched []touch) bool {
	for f, d := range g.cfg.Domains {
		if d.Values != nil {
			continue
		}
		for _, t := range touched {
			if !t.actionsOnly && !t.match[f].IsWildcard() {
				return true
			}
		}
	}
	return false
}

// actionsEqual compares two action lists element by element.
func actionsEqual(a, b []flowtable.Action) bool {
	return slices.EqualFunc(a, b, func(x, y flowtable.Action) bool {
		return x.Kind == y.Kind && x.Field == y.Field && x.Value == y.Value &&
			x.Port == y.Port && slices.Equal(x.Ports, y.Ports)
	})
}

// cloneActions deep-copies an action list.
func cloneActions(acts []flowtable.Action) []flowtable.Action {
	out := slices.Clone(acts)
	for i := range out {
		out[i].Ports = slices.Clone(out[i].Ports)
	}
	return out
}
