package monocle

import (
	"testing"
	"time"

	"monocle/internal/openflow"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// TestMonitorSessionCacheDeltaRecompile: a burst of rule updates flowing
// through the proxy generates all its dynamic probes through the
// epoch-aware session cache — the probe library is compiled incrementally
// (one delta per inserted rule), never rebuilt per update, and every
// update still confirms against the data plane.
func TestMonitorSessionCacheDeltaRecompile(t *testing.T) {
	confirmed := map[uint64]sim.Time{}
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirmed[ruleID] = at }
	})
	m := tb.mon[2]

	const n = 8
	for i := 0; i < n; i++ {
		fm := addFM(t, uint64(200+i), uint16(10+i), ip4(10, 0, 1, uint64(i)), 2)
		m.OnControllerMessage(fm, uint32(i+1))
		tb.sim.RunUntil(tb.sim.Now() + 100*time.Millisecond)
	}
	// Delete half of them again.
	for i := 0; i < n/2; i++ {
		fm := addFM(t, uint64(200+i), uint16(10+i), ip4(10, 0, 1, uint64(i)), 2)
		fm.Command = openflow.FCDeleteStrict
		m.OnControllerMessage(fm, uint32(100+i))
		tb.sim.RunUntil(tb.sim.Now() + 100*time.Millisecond)
	}
	tb.sim.RunUntil(tb.sim.Now() + time.Second)

	for i := 0; i < n; i++ {
		if _, ok := confirmed[uint64(200+i)]; !ok {
			t.Fatalf("rule %d never confirmed; stats=%+v", 200+i, m.Stats)
		}
	}
	st := m.cache.Stats
	if st.Syncs == 0 {
		t.Fatal("dynamic probes bypassed the session cache entirely")
	}
	// Each epoch recompiles only its delta: far fewer rule compilations
	// than syncs × table size (the rebuild-per-epoch behaviour). The
	// preinstalled catch rules get compiled once, then each add compiles
	// one rule; generous slack for re-syncs after deletions.
	limit := 3*n + 16
	if st.DeltaRules > limit {
		t.Fatalf("cache recompiled %d rules (limit %d): not a delta recompile; stats=%+v",
			st.DeltaRules, limit, st)
	}
}

// TestFailedReplacingAddMovesEpoch: an add whose strict delete removed a
// rule but whose insert then failed has still changed the expected
// table, so it must move the epoch that the session cache (and its
// per-rule results) keys on.
func TestFailedReplacingAddMovesEpoch(t *testing.T) {
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	m := tb.mon[2]
	m.OnControllerMessage(addFM(t, 100, 10, ip4(10, 0, 0, 1), 2), 1)
	m.OnControllerMessage(addFM(t, 200, 20, ip4(10, 0, 0, 2), 2), 2)
	tb.sim.RunUntil(time.Second)
	before := m.Epoch()
	// Rule 100's match and priority under rule 200's id: the strict
	// delete removes rule 100, the insert fails on the duplicate id.
	m.OnControllerMessage(addFM(t, 200, 10, ip4(10, 0, 0, 1), 2), 3)
	if _, ok := m.expected.Get(100); ok {
		t.Fatal("the replacing add kept rule 100")
	}
	if m.Epoch() == before {
		t.Fatalf("expected table changed but the epoch stayed %d", before)
	}
}
