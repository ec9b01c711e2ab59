package probe

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

func cacheGen() *Generator {
	return NewGenerator(Config{
		Collect:       flowtable.MatchAll().WithExact(header.VlanID, 1),
		ValidateModel: true,
	})
}

// TestSessionCacheEpochHit: the same epoch returns the identical session
// with no table scan; a bumped epoch re-syncs.
func TestSessionCacheEpochHit(t *testing.T) {
	tb := flowtable.New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		_ = tb.Insert(randomRule(rng, uint64(i)))
	}
	c := cacheGen().NewSessionCache(tb)
	s1, err := c.Session(7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Session(7)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("same epoch must return the cached session")
	}
	if c.Stats.Hits != 1 || c.Stats.Syncs != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 sync", c.Stats)
	}
	if _, err := c.Session(8); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Syncs != 2 {
		t.Fatalf("epoch bump must re-sync: %+v", c.Stats)
	}
}

// TestSessionCacheDeltaRecompile: rule churn recompiles only the changed
// rules, and the cached session's probes classify exactly like a fresh
// session built from scratch after every epoch.
func TestSessionCacheDeltaRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	tb := flowtable.New()
	g := cacheGen()
	c := g.NewSessionCache(tb)
	epoch := uint64(0)
	nextID := uint64(0)
	for i := 0; i < 12; i++ {
		_ = tb.Insert(randomRule(rng, nextID))
		nextID++
	}
	for round := 0; round < 25; round++ {
		// Mutate: one insert, and one delete every other round.
		_ = tb.Insert(randomRule(rng, nextID))
		nextID++
		if round%2 == 1 {
			rules := tb.Rules()
			_ = tb.Delete(rules[rng.Intn(len(rules))].ID)
		}
		epoch++

		sess, err := c.Session(epoch)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := g.NewSession(tb)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tb.Rules() {
			p1, err1 := sess.Generate(r)
			p2, err2 := fresh.Generate(r)
			if (err1 == nil) != (err2 == nil) ||
				errors.Is(err1, ErrUnmonitorable) != errors.Is(err2, ErrUnmonitorable) {
				t.Fatalf("round %d rule %v: cached err=%v fresh err=%v", round, r, err1, err2)
			}
			if err1 != nil {
				continue
			}
			// Both probes were ValidateModel-checked; also pin that the
			// cached-library probe hits its rule in the live table.
			if hit := tb.Lookup(p1.Header); hit == nil || hit.ID != r.ID {
				t.Fatalf("round %d rule %v: cached probe %v hits %v", round, r, p1.Header, hit)
			}
			_ = p2
		}
	}
	if c.Stats.Syncs != 25 {
		t.Fatalf("want 25 syncs, got %+v", c.Stats)
	}
	// Each sync compiles only the inserted rule(s) — far fewer than a
	// rebuild-per-epoch (25 epochs × ~13 rules) would.
	if c.Stats.DeltaRules > 25+13+26 {
		t.Fatalf("delta recompile compiled too many rules: %+v", c.Stats)
	}
	if c.Stats.Rebuilds == 0 {
		t.Logf("note: garbage threshold never crossed: %+v", c.Stats)
	}
}

// TestSessionCacheRebuildCompaction: enough deletions trigger a full
// rebuild, after which generation still works.
func TestSessionCacheRebuildCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := flowtable.New()
	g := cacheGen()
	c := g.NewSessionCache(tb)
	var ids []uint64
	for i := uint64(0); i < 40; i++ {
		if tb.Insert(randomRule(rng, i)) == nil {
			ids = append(ids, i)
		}
	}
	if _, err := c.Session(1); err != nil {
		t.Fatal(err)
	}
	// Delete most rules one epoch at a time.
	epoch := uint64(1)
	for _, id := range ids[:len(ids)-4] {
		_ = tb.Delete(id)
		epoch++
		if _, err := c.Session(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats.Rebuilds == 0 {
		t.Fatalf("garbage threshold never triggered a rebuild: %+v", c.Stats)
	}
	sess, err := c.Session(epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rules() {
		if _, err := sess.Generate(r); err != nil && !errors.Is(err, ErrUnmonitorable) {
			t.Fatalf("rule %v after rebuild: %v", r, err)
		}
	}
}

// TestSessionCacheGenerateAllMatchesGenerator: the cached sweep equals the
// from-scratch GenerateAll classification for the same table.
func TestSessionCacheGenerateAllMatchesGenerator(t *testing.T) {
	tb, _ := miniTable()
	g := cacheGen()
	c := g.NewSessionCache(tb)
	cached := c.GenerateAll(context.Background(), 1, 2)
	scratch := g.GenerateAll(context.Background(), tb, 2)
	if len(cached) != len(scratch) {
		t.Fatalf("result lengths differ: %d vs %d", len(cached), len(scratch))
	}
	for i := range cached {
		if cached[i].Rule.ID != scratch[i].Rule.ID {
			t.Fatalf("result order differs at %d", i)
		}
		if (cached[i].Err == nil) != (scratch[i].Err == nil) {
			t.Fatalf("rule %d: cached err=%v scratch err=%v", cached[i].Rule.ID, cached[i].Err, scratch[i].Err)
		}
	}
	// A second sweep at the same epoch hits the cached session and plan.
	again := c.GenerateAll(context.Background(), 1, 2)
	for i := range again {
		if (again[i].Err == nil) != (cached[i].Err == nil) {
			t.Fatalf("repeat sweep diverged at %d", i)
		}
		if again[i].Err == nil && again[i].Probe.Header != cached[i].Probe.Header {
			t.Fatalf("repeat sweep header diverged at %d", i)
		}
	}
	if c.Stats.Hits == 0 {
		t.Fatalf("repeat sweep did not hit the cache: %+v", c.Stats)
	}
}

// TestSessionCacheSweepReuse: a rule keeps its result until a table change
// touches it. A repeat sweep, a subset and an unchanged epoch bump solve
// nothing; a change solves exactly the rules it touched, and what the
// cache answers always equals a fresh cache's sweep of the same table. A
// cancelled sweep keeps nothing, and a rebuild keeps the results.
func TestSessionCacheSweepReuse(t *testing.T) {
	prof := dataset.Stanford()
	prof.Rules = 200
	tb, rules := dataset.Generate(prof)
	g := cacheGen()
	c := g.NewSessionCache(tb)
	ctx := context.Background()
	epoch := uint64(1)
	// sweep runs c over ids, requires it to solve exactly `solves` rules
	// and to equal a fresh cache's sweep.
	sweep := func(what string, ids []uint64, solves int) []Result {
		t.Helper()
		before := c.Stats.Solved
		res, stats := c.GenerateAllStats(ctx, epoch, ids, 2)
		if got := c.Stats.Solved - before; got != solves {
			t.Fatalf("%s: solved %d rules, want %d", what, got, solves)
		}
		if (stats == nil) != (solves == 0) {
			t.Fatalf("%s: stats %v after solving %d rules", what, stats, solves)
		}
		fresh, _ := g.NewSessionCache(tb).GenerateAllStats(ctx, 1, ids, 1)
		if len(res) != len(fresh) {
			t.Fatalf("%s: %d results, fresh cache %d", what, len(res), len(fresh))
		}
		for i := range res {
			a, b := res[i], fresh[i]
			if a.Rule != b.Rule || (a.Err == nil) != (b.Err == nil) ||
				(a.Err == nil && (a.Probe.Header != b.Probe.Header || a.Probe.Stats.Vars != b.Probe.Stats.Vars ||
					a.Probe.Stats.Clauses != b.Probe.Stats.Clauses || !reflect.DeepEqual(a.Probe.Absent, b.Probe.Absent))) {
				t.Fatalf("%s: rule %d differs from a fresh cache's sweep", what, a.Rule.ID)
			}
		}
		return res
	}

	first := sweep("first sweep", nil, len(rules))
	again := sweep("repeat sweep", nil, 0)
	if !reflect.DeepEqual(again, first) {
		t.Fatal("repeat sweep differs from the first")
	}
	// The caller owns the returned slice.
	again[0] = Result{}
	if next := sweep("after mutating a result", nil, 0); !reflect.DeepEqual(next, first) {
		t.Fatal("mutating a returned slice changed the cache")
	}
	sub := []uint64{rules[3].ID, rules[7].ID, rules[50].ID}
	if res := sweep("a subset", sub, 0); len(res) != 3 || res[1].Probe != first[7].Probe {
		t.Fatal("a subset was not answered with the whole sweep's results")
	}
	if res := sweep("an empty subset", []uint64{}, 0); len(res) != 0 {
		t.Fatalf("empty subset returned %d results", len(res))
	}
	epoch++
	sweep("an epoch bump without a change", nil, 0)

	// An action-only modify touches the rule and the rules above it that
	// overlap it; Generate solves the rule and leaves its result behind.
	x := rules[120]
	touched := 0
	for _, r := range rules {
		if r == x || (r.Priority > x.Priority && r.Match.Overlaps(x.Match)) {
			touched++
		}
	}
	if err := tb.Modify(x.ID, []flowtable.Action{flowtable.Output(15)}); err != nil {
		t.Fatal(err)
	}
	epoch++
	before := c.Stats.Solved
	if _, err := c.Generate(epoch, x); err != nil && !errors.Is(err, ErrUnmonitorable) {
		t.Fatal(err)
	}
	if _, err := c.Generate(epoch, x); err != nil && !errors.Is(err, ErrUnmonitorable) {
		t.Fatal(err)
	}
	if c.Stats.Solved != before+1 {
		t.Fatalf("two Generate calls solved %d rules, want 1", c.Stats.Solved-before)
	}
	sweep("an action-only modify", nil, touched-1)

	// A delete touches every rule overlapping the deleted match.
	touched = 0
	for _, r := range tb.Rules() {
		if r != x && r.Match.Overlaps(x.Match) {
			touched++
		}
	}
	if err := tb.Delete(x.ID); err != nil {
		t.Fatal(err)
	}
	epoch++
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, _ := c.GenerateAllStats(cancelled, epoch, nil, 2)
	if !slices.ContainsFunc(res, func(r Result) bool { return errors.Is(r.Err, context.Canceled) }) {
		t.Fatal("a cancelled sweep solved every touched rule")
	}
	for _, r := range sweep("a delete, after a cancelled sweep", nil, touched) {
		if errors.Is(r.Err, context.Canceled) {
			t.Fatalf("rule %d kept the cancelled sweep's error", r.Rule.ID)
		}
	}

	// A table miss change touches every rule.
	tb.Miss = flowtable.MissController
	epoch++
	sweep("a table miss change", nil, tb.Len())

	// The garbage left by deleting 150 rules triggers a rebuild at the
	// sync after the one that dropped them; the rebuild keeps results.
	for _, r := range rules[:150] {
		_ = tb.Delete(r.ID)
	}
	touched = 0
	for _, r := range tb.Rules() {
		for _, d := range rules[:150] {
			if d != x && r.Match.Overlaps(d.Match) {
				touched++
				break
			}
		}
	}
	epoch++
	sweep("deleting 150 rules", nil, touched)
	rebuilds := c.Stats.Rebuilds
	epoch++
	if res := sweep("a rebuild", nil, 0); len(res) != 50 {
		t.Fatalf("after deleting 150 of 200 rules: %d results", len(res))
	}
	if c.Stats.Rebuilds != rebuilds+1 {
		t.Fatalf("deleting 150 of 200 rules did not rebuild: %+v", c.Stats)
	}
}

// TestSessionCacheSpareValueChange: an untagged probe whose dl_vlan is a
// spare value (repairDomains) depends on the dl_vlan matches of the whole
// table, so a rule it does not overlap can still change it.
func TestSessionCacheSpareValueChange(t *testing.T) {
	net := func(a uint64) flowtable.Match {
		return flowtable.MatchAll().With(header.IPDst, header.Prefix(header.IPDst, a<<24, 8))
	}
	rule := func(id uint64, prio int, m flowtable.Match, port flowtable.PortID) *flowtable.Rule {
		return &flowtable.Rule{ID: id, Priority: prio, Match: m, Actions: []flowtable.Action{flowtable.Output(port)}}
	}
	tb := newTable(t, flowtable.MissDrop,
		rule(1, 100, net(10).WithExact(header.VlanID, header.VlanNone), 1),
		rule(2, 50, net(10), 2),
		rule(3, 1, flowtable.MatchAll(), 3))
	g := NewGenerator(Config{ValidateModel: true})
	c := g.NewSessionCache(tb)
	vlanOf := func(epoch uint64) uint64 {
		t.Helper()
		res, _ := c.GenerateAllStats(context.Background(), epoch, []uint64{2}, 1)
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("rule 2: %+v", res)
		}
		return res[0].Probe.Header.Get(header.VlanID)
	}
	if v := vlanOf(1); v != 0 {
		t.Fatalf("rule 2 probe on dl_vlan %d, want the spare value 0", v)
	}
	// Rule 4 overlaps neither rule 1 nor rule 2, but takes value 0.
	if err := tb.Insert(rule(4, 60, net(11).WithExact(header.VlanID, 0), 4)); err != nil {
		t.Fatal(err)
	}
	if v := vlanOf(2); v != 1 {
		t.Fatalf("rule 2 probe on dl_vlan %d after dl_vlan 0 was taken, want 1", v)
	}
}

// TestSessionCacheReservedRewrite: a modify that gives a rule, or takes
// from it, a rewrite of the reserved tag field changes the result of every
// rule with it in scope, lower-priority rules included, although only its
// actions changed.
func TestSessionCacheReservedRewrite(t *testing.T) {
	net := func(a, bits uint64) flowtable.Match {
		return flowtable.MatchAll().With(header.IPDst, header.Prefix(header.IPDst, a<<24, int(bits)))
	}
	rule := func(id uint64, prio int, m flowtable.Match, port flowtable.PortID) *flowtable.Rule {
		return &flowtable.Rule{ID: id, Priority: prio, Match: m, Actions: []flowtable.Action{flowtable.Output(port)}}
	}
	tb := newTable(t, flowtable.MissDrop,
		rule(1, 100, net(10, 8), 1),
		rule(2, 50, net(10, 7), 2),
		rule(3, 1, flowtable.MatchAll(), 3))
	cfg, err := SwitchConfig(7, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(cfg)
	c := g.NewSessionCache(tb)
	ctx := context.Background()
	sweep := func(what string, epoch uint64, wantErr bool) {
		t.Helper()
		res, _ := c.GenerateAllStats(ctx, epoch, nil, 1)
		fresh, _ := g.NewSessionCache(tb).GenerateAllStats(ctx, 1, nil, 1)
		for i := range res {
			a, b := res[i], fresh[i]
			if a.Rule != b.Rule || !reflect.DeepEqual(a.Probe, b.Probe) || errString(a.Err) != errString(b.Err) {
				t.Fatalf("%s: rule %d: %v / %v, a fresh cache gives %v / %v",
					what, a.Rule.ID, a.Probe, a.Err, b.Probe, b.Err)
			}
		}
		if got := errors.Is(res[1].Err, ErrRewritesProbeField); got != wantErr {
			t.Fatalf("%s: rule 2 gives %v", what, res[1].Err)
		}
	}
	sweep("plain outputs", 1, false)
	if err := tb.Modify(1, []flowtable.Action{flowtable.SetField(TagField, 9), flowtable.Output(1)}); err != nil {
		t.Fatal(err)
	}
	sweep("rule 1 rewrites the tag", 2, true)
	if err := tb.Modify(1, []flowtable.Action{flowtable.Output(4)}); err != nil {
		t.Fatal(err)
	}
	sweep("rule 1 no longer rewrites the tag", 3, false)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
