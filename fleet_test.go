package monocle_test

// Facade-level tests: the fleet differential determinism guarantee, the
// verifier dynamic-update lifecycle, JSON records, and the multiplexer's
// concurrent-routing contract.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"monocle"
	"monocle/internal/dataset"
)

// fleetProfile builds switch id's table variant (deterministic per id).
func fleetProfile(id uint32, rules int) dataset.Profile {
	p := dataset.Stanford()
	p.Rules = rules
	p.Seed = int64(id) * 7717
	return p
}

// TestFleetSweepMatchesStandaloneVerifiers is the fleet-level
// differential test: the per-switch probe sets produced by a Fleet sweep
// must be bit-identical to independent standalone Verifier runs, for
// several fleet worker budgets (the sharding must never leak into the
// results — the same guarantee PR 2 pinned for single-table sweeps). A
// SweepPlan listing every rule of every switch runs the same engine and
// must match too: a plan's subset is not a second generation path.
func TestFleetSweepMatchesStandaloneVerifiers(t *testing.T) {
	const nSwitches, nRules = 4, 60

	// Reference: one standalone Verifier per switch, swept sequentially.
	want := make(map[uint32]*standaloneSweep)
	for id := uint32(1); id <= nSwitches; id++ {
		v, err := monocle.NewVerifier(
			monocle.WithProbeTag(uint64(id)),
			monocle.WithWorkers(1),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, rules := dataset.Generate(fleetProfile(id, nRules))
		if err := v.Install(rules...); err != nil {
			t.Fatal(err)
		}
		r := &standaloneSweep{}
		for _, res := range v.Sweep(context.Background()) {
			switch {
			case res.Err == nil:
				r.ids = append(r.ids, res.Rule.ID)
				r.headers = append(r.headers, res.Probe.Header)
				r.unmon = append(r.unmon, false)
			case errors.Is(res.Err, monocle.ErrUnmonitorable):
				r.ids = append(r.ids, res.Rule.ID)
				r.headers = append(r.headers, monocle.Header{})
				r.unmon = append(r.unmon, true)
			default:
				t.Fatalf("switch %d rule %d: unexpected error %v", id, res.Rule.ID, res.Err)
			}
		}
		if len(r.ids) == 0 {
			t.Fatalf("switch %d: standalone sweep produced nothing", id)
		}
		want[id] = r
	}

	for _, budget := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", budget), func(t *testing.T) {
			fleet := monocle.NewFleet(monocle.WithWorkers(budget))
			every := map[uint32][]uint64{}
			for id := uint32(1); id <= nSwitches; id++ {
				v, err := fleet.AddSwitch(id)
				if err != nil {
					t.Fatal(err)
				}
				_, rules := dataset.Generate(fleetProfile(id, nRules))
				if err := v.Install(rules...); err != nil {
					t.Fatal(err)
				}
				for _, r := range rules {
					every[id] = append(every[id], r.ID)
				}
			}
			ctx := context.Background()
			checkEvents(t, fleet.Sweep(ctx), want)
			checkEvents(t, fleet.SweepPlan(ctx, every), want)
		})
	}
}

// standaloneSweep is one switch's reference sweep: rule ids in table
// order, their probe headers, and which rules were unmonitorable.
type standaloneSweep struct {
	ids     []uint64
	headers []monocle.Header
	unmon   []bool
}

// checkEvents requires a fleet sweep's events to match the standalone
// reference sweeps rule for rule, bit for bit.
func checkEvents(t *testing.T, evs []monocle.SweepEvent, want map[uint32]*standaloneSweep) {
	t.Helper()
	got := map[uint32]int{} // per-switch cursor into the reference
	for _, ev := range evs {
		w, ok := want[ev.SwitchID]
		if !ok {
			t.Fatalf("event for unknown switch %d", ev.SwitchID)
		}
		i := got[ev.SwitchID]
		if i >= len(w.ids) {
			t.Fatalf("switch %d: more fleet results than standalone", ev.SwitchID)
		}
		if ev.Result.Rule.ID != w.ids[i] {
			t.Fatalf("switch %d result %d: rule %d, standalone had %d (order diverged)",
				ev.SwitchID, i, ev.Result.Rule.ID, w.ids[i])
		}
		unmon := errors.Is(ev.Result.Err, monocle.ErrUnmonitorable)
		if ev.Result.Err != nil && !unmon {
			t.Fatalf("switch %d rule %d: unexpected error %v", ev.SwitchID, ev.Result.Rule.ID, ev.Result.Err)
		}
		if unmon != w.unmon[i] {
			t.Fatalf("switch %d rule %d: monitorability diverged (fleet unmon=%v)",
				ev.SwitchID, ev.Result.Rule.ID, unmon)
		}
		if !unmon && ev.Result.Probe.Header != w.headers[i] {
			t.Fatalf("switch %d rule %d: header %v vs standalone %v — fleet probe set is not bit-identical",
				ev.SwitchID, ev.Result.Rule.ID, ev.Result.Probe.Header, w.headers[i])
		}
		got[ev.SwitchID] = i + 1
	}
	for id, w := range want {
		if got[id] != len(w.ids) {
			t.Fatalf("switch %d: fleet produced %d results, standalone %d", id, got[id], len(w.ids))
		}
	}
}

// TestVerifierDynamicUpdateLifecycle drives the single-switch facade
// through add → confirm, modify → confirm, delete → confirm, using Judge
// on synthetic observations taken from the probes' own outcomes.
func TestVerifierDynamicUpdateLifecycle(t *testing.T) {
	v, err := monocle.NewVerifier(monocle.WithProbeTag(7))
	if err != nil {
		t.Fatal(err)
	}
	low := &monocle.Rule{
		ID: 1, Priority: 1,
		Match:   monocle.MatchAll().WithExact(monocle.EthType, monocle.EthTypeIPv4),
		Actions: []monocle.Action{monocle.Output(9)},
	}
	if err := v.Install(low); err != nil {
		t.Fatal(err)
	}

	rule := &monocle.Rule{
		ID: 2, Priority: 10,
		Match: monocle.MatchAll().
			WithExact(monocle.EthType, monocle.EthTypeIPv4).
			WithExact(monocle.IPSrc, 10<<24|1),
		Actions: []monocle.Action{monocle.Output(2)},
	}
	p, err := v.Add(rule)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if len(p.Present.Emissions) == 0 {
		t.Fatal("addition probe has no Present emissions")
	}
	em := p.Present.Emissions[0]
	if got := monocle.Judge(p, em.Port, em.Header); got != monocle.VerdictConfirmed {
		t.Fatalf("Judge(present observation) = %v, want VerdictConfirmed", got)
	}
	if len(p.Absent.Emissions) > 0 {
		ae := p.Absent.Emissions[0]
		if got := monocle.Judge(p, ae.Port, ae.Header); got != monocle.VerdictAbsent {
			t.Fatalf("Judge(absent observation) = %v, want VerdictAbsent", got)
		}
	}

	mp, err := v.Modify(rule.ID, []monocle.Action{monocle.Output(3)})
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if len(mp.Present.Emissions) == 0 || mp.Present.Emissions[0].Port != 3 {
		t.Fatalf("modification probe Present should emit on port 3, got %+v", mp.Present)
	}
	if len(mp.Absent.Emissions) == 0 || mp.Absent.Emissions[0].Port != 2 {
		t.Fatalf("modification probe Absent should emit on old port 2, got %+v", mp.Absent)
	}

	dp, err := v.Delete(rule.ID)
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := v.ProbeFor(rule.ID); !errors.Is(err, monocle.ErrNotFound) {
		t.Fatalf("rule still present after Delete: %v", err)
	}
	// Deletion confirmed: the probe falls through to the low rule.
	if len(dp.Absent.Emissions) == 0 {
		t.Fatal("deletion probe has no Absent emissions")
	}
	de := dp.Absent.Emissions[0]
	if got := monocle.Judge(dp, de.Port, de.Header); got != monocle.VerdictAbsent {
		t.Fatalf("Judge(post-deletion observation) = %v, want VerdictAbsent", got)
	}
	if got := monocle.Judge(dp, 42, monocle.Header{}); got != monocle.VerdictUnexpected {
		t.Fatalf("Judge(garbage observation) = %v, want VerdictUnexpected", got)
	}
}

// TestResultRecordJSON pins the -json line format consumed by scripts:
// unmonitorable rules and probe-carrying rules render distinctly, and
// zero-valued header fields are omitted.
func TestResultRecordJSON(t *testing.T) {
	v, err := monocle.NewVerifier(monocle.WithProbeTag(1))
	if err != nil {
		t.Fatal(err)
	}
	rule := &monocle.Rule{
		ID: 5, Priority: 10,
		Match:   monocle.MatchAll().WithExact(monocle.EthType, monocle.EthTypeIPv4),
		Actions: []monocle.Action{monocle.Output(2)},
	}
	if err := v.Install(rule); err != nil {
		t.Fatal(err)
	}
	results := v.Sweep(context.Background())
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("unexpected sweep results %+v", results)
	}
	rec := monocle.NewResultRecord(3, 9, results[0])
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back["switch"].(float64) != 3 || back["epoch"].(float64) != 9 || back["rule"].(float64) != 5 {
		t.Fatalf("record identity fields wrong: %s", raw)
	}
	probe, ok := back["probe"].(map[string]any)
	if !ok {
		t.Fatalf("record lacks probe object: %s", raw)
	}
	hdr := probe["header"].(map[string]any)
	if _, has := hdr["in_port"]; has && hdr["in_port"].(float64) == 0 {
		t.Fatalf("zero-valued header field not omitted: %s", raw)
	}

	unmon := monocle.ProbeResult{Rule: rule, Err: monocle.ErrUnmonitorable}
	raw, err = json.Marshal(monocle.NewResultRecord(0, 0, unmon))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"rule":5,"unmonitorable":true}` {
		t.Fatalf("unmonitorable record format changed: %s", raw)
	}
}

// TestMultiplexerConcurrentUse exercises the fleet-safe routing contract:
// concurrent Register and RouteCaught (to absent owners) must be safe,
// and Monitors() must iterate deterministically by switch id.
func TestMultiplexerConcurrentUse(t *testing.T) {
	mux := monocle.NewMultiplexer()
	s := monocle.NewSim()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mon := monocle.NewMonitor(s, monocle.NewMonitorConfig(uint32(8-i)))
			mux.Register(mon)
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Unowned probes only: exercises the locking without
			// violating any Monitor's single-threaded contract.
			mux.RouteCaught(monocle.ProbeMetadata{SwitchID: 999}, 1, monocle.Header{})
		}()
	}
	wg.Wait()
	mons := mux.Monitors()
	if len(mons) != 8 {
		t.Fatalf("registered 8 monitors, got %d", len(mons))
	}
	for i, m := range mons {
		if m.Cfg.SwitchID != uint32(i+1) {
			t.Fatalf("Monitors() not sorted by id: %v at %d", m.Cfg.SwitchID, i)
		}
	}
	if st := mux.Stats(); st.NoOwner != 8 {
		t.Fatalf("NoOwner = %d, want 8", st.NoOwner)
	}
}
