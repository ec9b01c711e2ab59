package monocle_test

// Concurrent round engine: SweepRound observes every switch's batch at
// once and folds the verdicts in switch order, so a round's records and
// alerts do not depend on which switch answered first; a round cancelled
// while its observations are in flight is discarded.

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"monocle"
)

// roundGate holds every ObserveBatch call of a round until all n
// switches' calls have entered it. A round that observes the switches
// one at a time never gets past the first call; the gate reports that
// as a test failure after 5 s instead of hanging.
type roundGate struct {
	t *testing.T
	n int

	mu      sync.Mutex
	entered int
	open    chan struct{}   // closed once n calls have entered
	expired context.Context // done 5 s after arm
	stop    context.CancelFunc
	hold    bool // once open, wait for the round's context to end
}

// arm resets the gate for the next round.
func (g *roundGate) arm(hold bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stop != nil {
		g.stop()
	}
	g.entered, g.open, g.hold = 0, make(chan struct{}), hold
	g.expired, g.stop = context.WithTimeout(context.Background(), 5*time.Second)
}

// opened is closed once every switch's call has entered.
func (g *roundGate) opened() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.open
}

func (g *roundGate) enter(ctx context.Context) {
	g.mu.Lock()
	open, expired, hold := g.open, g.expired, g.hold
	g.entered++
	if g.entered == g.n {
		close(open)
	}
	g.mu.Unlock()
	select {
	case <-open:
	case <-expired.Done():
		g.t.Errorf("an ObserveBatch call waited 5 s without the other %d switches' calls: the round observes switches one at a time", g.n-1)
		return
	}
	if hold {
		select {
		case <-ctx.Done():
		case <-expired.Done():
			g.t.Error("the held round's context was never cancelled")
		}
	}
}

// gateBackend passes a SimBackend's observations through a roundGate.
type gateBackend struct {
	*monocle.SimBackend
	gate *roundGate
}

func (b gateBackend) ObserveBatch(ctx context.Context, probes []*monocle.Probe, expects []monocle.Expectation) ([]monocle.Verdict, []error) {
	b.gate.enter(ctx)
	return b.SimBackend.ObserveBatch(ctx, probes, expects)
}

// gatedFleet is a Service over n SimBackends, gated when gate is
// non-nil, each holding 12 rules.
func gatedFleet(t *testing.T, n int, gate *roundGate) (*monocle.Service, []*monocle.SimBackend) {
	t.Helper()
	svc := monocle.NewService(monocle.WithDebounce(2))
	t.Cleanup(func() { svc.Close() })
	if gate != nil {
		t.Cleanup(func() {
			if gate.stop != nil {
				gate.stop()
			}
		})
	}
	var sims []*monocle.SimBackend
	for id := uint32(1); id <= uint32(n); id++ {
		sim := monocle.NewSimBackend(id)
		sims = append(sims, sim)
		var be monocle.Backend = sim
		if gate != nil {
			be = gateBackend{sim, gate}
		}
		if _, err := svc.Fleet().AddBackend(be); err != nil {
			t.Fatal(err)
		}
		var rules []*monocle.Rule
		for i := uint64(0); i < 12; i++ {
			rules = append(rules, seamRule(id, i))
		}
		if err := svc.InstallRules(id, rules...); err != nil {
			t.Fatal(err)
		}
	}
	return svc, sims
}

// roundJSON renders a round's records and alerts canonically.
func roundJSON(svc *monocle.Service, alerts []monocle.Alert) string {
	rj, _ := json.Marshal(svc.LastSweep())
	aj, _ := json.Marshal(alerts)
	return string(rj) + "\n" + string(aj)
}

// TestSweepRoundObservesSwitchesConcurrently: every switch's ObserveBatch
// call is in flight at once, and the gated rounds' records and alerts
// equal an ungated service's, round by round, in switch order.
func TestSweepRoundObservesSwitchesConcurrently(t *testing.T) {
	const n = 4
	gate := &roundGate{t: t, n: n}
	gated, gatedSims := gatedFleet(t, n, gate)
	plain, plainSims := gatedFleet(t, n, nil)
	lose := func(sims []*monocle.SimBackend) {
		for _, sw := range []uint32{2, 4} {
			r := seamRule(sw, 5)
			if err := sims[sw-1].Apply(monocle.BackendOp{Op: "delete", ID: r.ID, Rule: r.Clone()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	failing := 0
	for round := 0; round < 3; round++ {
		if round == 1 {
			lose(gatedSims)
			lose(plainSims)
		}
		gate.arm(false)
		got := gated.SweepRound(ctx)
		want := plain.SweepRound(ctx)
		if t.Failed() {
			t.FailNow()
		}
		if g, w := roundJSON(gated, got), roundJSON(plain, want); g != w {
			t.Fatalf("round %d: gated round differs from the ungated one\ngated: %s\nplain: %s", round, g, w)
		}
		for _, a := range got {
			if a.Type == monocle.AlertRuleFailing {
				failing++
			}
		}
	}
	if failing != 2 {
		t.Fatalf("%d rule_failing alerts, want one for each lost rule", failing)
	}
	recs := gated.LastSweep()
	for i := 1; i < len(recs); i++ {
		if recs[i].Switch < recs[i-1].Switch {
			t.Fatalf("records out of switch order at %d: switch %d after %d", i, recs[i].Switch, recs[i-1].Switch)
		}
	}
}

// TestSweepRoundCancelledWhileObserving: cancelling the round's context
// while every switch's observation is held aborts the round — SweepRound
// returns nil and the round is not counted — and the next round folds
// normally.
func TestSweepRoundCancelledWhileObserving(t *testing.T) {
	const n = 4
	gate := &roundGate{t: t, n: n}
	gated, _ := gatedFleet(t, n, gate)
	plain, _ := gatedFleet(t, n, nil)

	gate.arm(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []monocle.Alert, 1)
	go func() { done <- gated.SweepRound(ctx) }()
	select {
	case <-gate.opened():
	case <-time.After(5 * time.Second):
		t.Fatal("the switches' observations never all entered")
	}
	cancel()
	if alerts := <-done; alerts != nil {
		t.Fatalf("cancelled round returned %v, want nil", alerts)
	}
	if r := gated.Metrics().Rounds; r != 0 {
		t.Fatalf("cancelled round counted: %d rounds", r)
	}

	gate.arm(false)
	got := gated.SweepRound(context.Background())
	want := plain.SweepRound(context.Background())
	if r := gated.Metrics().Rounds; r != 1 {
		t.Fatalf("%d rounds after the next round, want 1", r)
	}
	if g, w := roundJSON(gated, got), roundJSON(plain, want); g != w {
		t.Fatalf("the round after the cancelled one differs from an ungated first round\ngated: %s\nplain: %s", g, w)
	}
}
