package probe

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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

// TestSessionCacheSweepReuse: a repeat of the last complete sweep (same
// epoch, same ids) returns the same results with no solver work; any
// other key, a cancelled sweep and a rebuild re-solve.
func TestSessionCacheSweepReuse(t *testing.T) {
	prof := dataset.Stanford()
	prof.Rules = 200
	tb, rules := dataset.Generate(prof)
	c := cacheGen().NewSessionCache(tb)
	ctx := context.Background()
	epoch := uint64(1)
	resolves := func(what string, ids []uint64) []Result {
		t.Helper()
		res, stats := c.GenerateAllStats(ctx, epoch, ids, 2)
		if stats == nil {
			t.Fatalf("%s: reused a sweep that must re-solve", what)
		}
		return res
	}

	first := resolves("first sweep", nil)
	hits := c.Stats.Hits
	again, stats := c.GenerateAllStats(ctx, epoch, nil, 2)
	if stats != nil {
		t.Fatalf("repeat sweep did solver work: %+v", stats)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("repeat sweep differs from the first")
	}
	if c.Stats.Hits != hits+1 {
		t.Fatalf("reuse not counted as a hit: %d, want %d", c.Stats.Hits, hits+1)
	}
	// The caller owns the returned slice.
	again[0] = Result{}
	if next, _ := c.GenerateAllStats(ctx, epoch, nil, 2); !reflect.DeepEqual(next, first) {
		t.Fatal("mutating a returned slice changed the memo")
	}

	sub := []uint64{rules[3].ID, rules[7].ID, rules[50].ID}
	resolves("a subset", sub)
	if _, stats := c.GenerateAllStats(ctx, epoch, sub, 2); stats != nil {
		t.Fatal("repeat subset sweep did solver work")
	}
	resolves("another subset", sub[:2])
	resolves("the whole table after a subset", nil)
	if res := resolves("an empty subset after nil", []uint64{}); len(res) != 0 {
		t.Fatalf("empty subset returned %d results", len(res))
	}
	resolves("nil after an empty subset", nil)

	epoch++
	if res := resolves("an epoch bump", nil); !reflect.DeepEqual(res, first) {
		t.Fatal("re-solve of an unchanged table differs")
	}

	// A cancelled sweep is neither reused nor kept.
	epoch++
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, _ := c.GenerateAllStats(cancelled, epoch, nil, 2)
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("cancelled sweep: err %v", res[0].Err)
	}
	for _, r := range resolves("after a cancelled sweep", nil) {
		if errors.Is(r.Err, context.Canceled) {
			t.Fatalf("rule %d kept the cancelled sweep's error", r.Rule.ID)
		}
	}

	// The garbage left by deleting 150 rules triggers a rebuild at the
	// sync after the one that dropped them.
	for _, r := range rules[:150] {
		_ = tb.Delete(r.ID)
	}
	epoch++
	resolves("deleting 150 rules", nil)
	rebuilds := c.Stats.Rebuilds
	epoch++
	if res := resolves("a rebuild", nil); len(res) != 50 {
		t.Fatalf("after deleting 150 of 200 rules: %d results", len(res))
	}
	if c.Stats.Rebuilds != rebuilds+1 {
		t.Fatalf("deleting 150 of 200 rules did not rebuild: %+v", c.Stats)
	}
}
