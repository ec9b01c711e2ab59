package monocle_test

// Crash-safety end-to-end tests: a monocled service killed mid-deployment
// must come back from its state directory with the diff engine's memory
// intact (no re-confirmation storm, no false rule_recovered, the alert
// history still on GET /alerts), and a proxy driver that loses its switch
// TCP session mid-sweep must reconnect with backoff and rejoin the sweep
// pool instead of hanging the round. Run under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"monocle"
	"monocle/internal/netx"
)

// waitBackendEvent drains a backend's event stream until an event of the
// wanted type arrives (other events are skipped) or the timeout fires.
func waitBackendEvent(t *testing.T, ch <-chan monocle.BackendEvent, want monocle.BackendEventType, timeout time.Duration) monocle.BackendEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-ch:
			if ev.Type == want {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for backend event %v", want)
		}
	}
}

// sweepUntilAlerts sweeps until a round raises alerts, or fails the test.
func sweepUntilAlerts(t *testing.T, svc *monocle.Service) []monocle.Alert {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if alerts := svc.SweepRound(context.Background()); len(alerts) > 0 {
			return alerts
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no alert surfaced before the deadline")
	return nil
}

// TestRestartResumeProxyEndToEnd is the kill-and-restart e2e: a live TCP
// switch (the harness survives the restart, exactly like hardware) is
// driven to a failing alert, the service process "dies" (Close) and a
// second service on the same state directory resumes. The restarted
// service must still hold the alert history, must raise ZERO alerts on
// its next sweeps — the rule is still broken and was already alerted; a
// false rule_recovered or a duplicate rule_failing is the bug class this
// pins — and must raise exactly one rule_recovered once the hardware is
// actually healed.
func TestRestartResumeProxyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ports := []monocle.PortID{1, 2, 3, 4}
	sw := startTCPSimSwitch(t, 1, ports)
	defer sw.stop()

	opts := func() []monocle.Option {
		return []monocle.Option{
			monocle.WithWorkers(1),
			monocle.WithDetectionTimeout(500 * time.Millisecond),
			monocle.WithStateDir(dir),
		}
	}
	spec := monocle.SwitchSpec{
		ID:      1,
		Backend: "proxy",
		Address: sw.addr,
		Ports:   []uint16{1, 2, 3, 4},
		Peers:   map[uint16]uint32{1: 1, 2: 1, 3: 1, 4: 1},
	}
	rs := monocle.RuleSpec{ID: 7, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.1.0/24"},
		Actions: []monocle.ActionSpec{{Output: 2}}}

	// Life 1: register, install (confirmed over the wire), sweep healthy,
	// break the hardware, alert.
	svc1 := monocle.NewService(opts()...)
	if _, err := svc1.AddSwitch(spec); err != nil {
		t.Fatal(err)
	}
	reply, err := svc1.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs})
	if err != nil || reply.Verdict != "confirmed" {
		t.Fatalf("install: %+v, %v", reply, err)
	}
	if alerts := svc1.SweepRound(context.Background()); len(alerts) != 0 {
		t.Fatalf("healthy sweep alerted: %+v", alerts)
	}
	sw.fail <- 7
	alerts := sweepUntilAlerts(t, svc1)
	if len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleFailing || alerts[0].Rule != 7 {
		t.Fatalf("want one rule_failing for rule 7, got %+v", alerts)
	}
	// The alerted flag must keep later rounds quiet while the fault holds.
	for i := 0; i < 2; i++ {
		if alerts := svc1.SweepRound(context.Background()); len(alerts) != 0 {
			t.Fatalf("re-alerted while already alerted: %+v", alerts)
		}
	}
	before := svc1.Alerts()
	if len(before) == 0 {
		t.Fatal("no alerts retained before the restart")
	}
	// The process dies. The switch — and its fault — live on.
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: same state directory. Resume must re-dial the switch,
	// restore the expected table and fold state, and refill the ring.
	svc2 := monocle.NewService(opts()...)
	defer svc2.Close()
	if err := svc2.Resume(context.Background()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(svc2.Alerts(), before) {
		t.Fatalf("alert history did not survive the restart:\n got %+v\nwant %+v", svc2.Alerts(), before)
	}
	// The rule is still missing from the hardware and was already
	// alerted: the restarted differ must stay silent — in particular it
	// must NOT claim rule_recovered (the restart healed nothing) and must
	// not re-fire rule_failing (no re-confirmation storm).
	for i := 0; i < 3; i++ {
		if alerts := svc2.SweepRound(context.Background()); len(alerts) != 0 {
			t.Fatalf("restarted service alerted on an unchanged fleet (round %d): %+v", i, alerts)
		}
	}
	if !reflect.DeepEqual(svc2.Alerts(), before) {
		t.Fatalf("post-restart sweeps grew the alert history: %+v", svc2.Alerts())
	}

	// Heal the hardware for real — lift the injected failure, then re-add
	// the rule on the data plane only: now — and only now — exactly one
	// rule_recovered.
	sw.healRule(7)
	if _, err := svc2.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs, Dataplane: "actual"}); err != nil {
		t.Fatalf("healing the data plane: %v", err)
	}
	alerts = sweepUntilAlerts(t, svc2)
	if len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleRecovered || alerts[0].Rule != 7 {
		t.Fatalf("want exactly one rule_recovered for rule 7, got %+v", alerts)
	}
	if alerts := svc2.SweepRound(context.Background()); len(alerts) != 0 {
		t.Fatalf("recovery re-fired: %+v", alerts)
	}
}

// TestRestartRemembersLostSwitch: a proxy switch that cannot re-register
// at Resume (it died with the monitor) is remembered under its persisted
// tags, so its group's rounds keep counting it and it goes switch_stalled
// after WithStallThreshold rounds — under a policy exactly as without
// one.
func TestRestartRemembersLostSwitch(t *testing.T) {
	selectAll, err := monocle.ParsePolicy("policy all { select all }\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pol  *monocle.Policy
	}{{"no-policy", nil}, {"policy", selectAll}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sw := startTCPSimSwitch(t, 1, []monocle.PortID{1, 2})
			svc1 := monocle.NewService(monocle.WithWorkers(1), monocle.WithStateDir(dir),
				monocle.WithDetectionTimeout(500*time.Millisecond))
			if _, err := svc1.AddSwitch(monocle.SwitchSpec{
				ID: 1, Backend: "proxy", Address: sw.addr, Tags: []string{"edge"},
				Ports: []uint16{1, 2}, Peers: map[uint16]uint32{1: 1, 2: 1},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := svc1.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &monocle.RuleSpec{
				ID: 7, Priority: 10,
				Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.1.0/24"},
				Actions: []monocle.ActionSpec{{Output: 2}},
			}}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if alerts := svc1.SweepRound(context.Background()); len(alerts) != 0 {
					t.Fatalf("healthy round %d alerted: %+v", i, alerts)
				}
			}
			if err := svc1.Close(); err != nil {
				t.Fatal(err)
			}
			sw.stop()

			svc2 := monocle.NewService(monocle.WithWorkers(1), monocle.WithStateDir(dir),
				monocle.WithStallThreshold(2), monocle.WithPolicy(tc.pol))
			defer svc2.Close()
			if err := svc2.Resume(context.Background()); err == nil {
				t.Fatal("resume re-registered a switch that is gone")
			}
			var alerts []monocle.Alert
			for round := 1; round <= 5; round++ {
				for _, a := range svc2.SweepRound(context.Background()) {
					if a.Type != monocle.AlertSwitchStalled || a.SwitchID != 1 || round != 2 {
						t.Fatalf("round %d: unexpected alert %+v", round, a)
					}
					alerts = append(alerts, a)
				}
			}
			if len(alerts) != 1 {
				t.Fatalf("want one switch_stalled for the lost switch in round 2, got %+v", alerts)
			}
		})
	}
}

// restartScript drives one scripted deployment — install, fault, debounced
// failing alert, (optionally: kill + resume), quiet rounds, heal,
// recovery — and returns the service's full alert stream. With
// restart=true the process dies right after the failing alert and a new
// service resumes from dir; the data-plane fault is re-injected after
// Resume because a simulated data plane dies with the process (Resume
// replays the expected table into the fresh sim — re-breaking it restores
// the pre-kill hardware state; dataplane-only ops never touch the epoch).
func restartScript(t *testing.T, workers int, restart bool, dir string) []monocle.Alert {
	t.Helper()
	ctx := context.Background()
	newSvc := func() *monocle.Service {
		o := []monocle.Option{monocle.WithWorkers(workers), monocle.WithDebounce(2)}
		if dir != "" {
			o = append(o, monocle.WithStateDir(dir))
		}
		return monocle.NewService(o...)
	}
	svc := newSvc()
	defer func() { svc.Close() }()

	rules := map[uint32][]monocle.RuleSpec{}
	for id := uint32(1); id <= 3; id++ {
		if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: id}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			rs := monocle.RuleSpec{ID: uint64(7 + j), Priority: 10 + j,
				Match:   map[string]string{"dl_type": "0x800", "nw_src": fmt.Sprintf("10.%d.%d.1", id, j)},
				Actions: []monocle.ActionSpec{{Output: 9}}}
			reply, err := svc.ApplyRule(id, monocle.RuleOp{Op: "add", Rule: &rs})
			if err != nil || reply.Verdict != "confirmed" {
				t.Fatalf("switch %d rule %d: %+v, %v", id, rs.ID, reply, err)
			}
			rules[id] = append(rules[id], rs)
		}
	}
	breakRule := func() {
		if _, err := svc.ApplyRule(2, monocle.RuleOp{Op: "delete", ID: 7, Dataplane: "actual"}); err != nil {
			t.Fatalf("injecting the fault: %v", err)
		}
	}
	healRule := func() {
		rs := rules[2][0]
		if _, err := svc.ApplyRule(2, monocle.RuleOp{Op: "add", Rule: &rs, Dataplane: "actual"}); err != nil {
			t.Fatalf("healing the fault: %v", err)
		}
	}

	svc.SweepRound(ctx) // r1: healthy
	breakRule()
	svc.SweepRound(ctx) // r2: first miss (debounced)
	svc.SweepRound(ctx) // r3: rule_failing fires

	if restart {
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		svc = newSvc()
		if err := svc.Resume(ctx); err != nil {
			t.Fatalf("resume: %v", err)
		}
		breakRule() // the sim data plane was reborn healthy; restore the fault
	}

	svc.SweepRound(ctx) // r4: still failing, already alerted
	svc.SweepRound(ctx) // r5
	healRule()
	svc.SweepRound(ctx) // r6: rule_recovered fires
	svc.SweepRound(ctx) // r7: quiet
	return svc.Alerts()
}

// TestRestartDifferentialAlertStream pins the tentpole's acceptance bar:
// the alert stream of a deployment that is killed and resumed mid-incident
// is byte-identical to the stream of one that never restarted — and both
// are identical across solver-worker budgets.
func TestRestartDifferentialAlertStream(t *testing.T) {
	marshal := func(alerts []monocle.Alert) string {
		b, err := json.Marshal(alerts)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := marshal(restartScript(t, 1, false, ""))
	if want == "[]" || want == "null" {
		t.Fatalf("control run raised no alerts: %s", want)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, restart := range []bool{false, true} {
			dir := ""
			if restart {
				dir = t.TempDir()
			}
			got := marshal(restartScript(t, workers, restart, dir))
			if got != want {
				t.Fatalf("alert stream diverged (workers=%d restart=%v):\n got %s\nwant %s",
					workers, restart, got, want)
			}
		}
	}
}

// TestProxyBackendReconnectMidSweep drops the switch-side TCP session
// while the service depends on it: the driver must surface
// backend_disconnected, resolve in-flight work as unobserved instead of
// hanging (a sweep during the outage completes promptly and alerts
// nothing), fail Apply fast with ErrBackendDisconnected, reconnect with
// backoff once the "network" heals, surface backend_reconnected, and
// rejoin the sweep pool with healthy verdicts.
func TestProxyBackendReconnectMidSweep(t *testing.T) {
	ports := []monocle.PortID{1, 2}
	sw := startTCPSimSwitch(t, 1, ports)
	defer sw.stop()

	svc := monocle.NewService(
		monocle.WithWorkers(1),
		monocle.WithDetectionTimeout(300*time.Millisecond),
		monocle.WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond),
	)
	defer svc.Close()
	if _, err := svc.AddSwitch(monocle.SwitchSpec{
		ID: 1, Backend: "proxy", Address: sw.addr,
		Ports: []uint16{1, 2}, Peers: map[uint16]uint32{1: 1, 2: 1},
	}); err != nil {
		t.Fatal(err)
	}
	rs := monocle.RuleSpec{ID: 7, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.1.0/24"},
		Actions: []monocle.ActionSpec{{Output: 2}}}
	if reply, err := svc.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs}); err != nil || reply.Verdict != "confirmed" {
		t.Fatalf("install: %+v, %v", reply, err)
	}
	if alerts := svc.SweepRound(context.Background()); len(alerts) != 0 {
		t.Fatalf("healthy sweep alerted: %+v", alerts)
	}
	be, ok := svc.Fleet().Backend(1)
	if !ok {
		t.Fatal("no backend for switch 1")
	}

	// Hold the redial path down so the outage persists for the duration
	// of the checks below (the hook is installed after the initial
	// Connect, so only reconnect dials see it).
	gate := make(chan struct{})
	restore := netx.SetDialHook(func(ctx context.Context, network, addr string) (net.Conn, error) {
		select {
		case <-gate:
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		default:
			return nil, errors.New("injected dial failure")
		}
	})
	defer restore()

	sw.drop()
	waitBackendEvent(t, be.Events(), monocle.BackendDisconnected, 10*time.Second)

	// A data-plane mutation during the outage fails fast and typed.
	spare := &monocle.Rule{ID: 8, Priority: 5,
		Match:   monocle.MatchAll().WithExact(monocle.EthType, monocle.EthTypeIPv4),
		Actions: []monocle.Action{monocle.Output(2)}}
	if err := be.Apply(monocle.BackendOp{Op: "add", Rule: spare}); !errors.Is(err, monocle.ErrBackendDisconnected) {
		t.Fatalf("Apply during outage: %v, want ErrBackendDisconnected", err)
	}
	if _, err := svc.ApplyRule(1, monocle.RuleOp{Op: "delete", ID: 7, Dataplane: "actual"}); !errors.Is(err, monocle.ErrBackendDisconnected) {
		t.Fatalf("ApplyRule during outage: %v, want ErrBackendDisconnected", err)
	}

	// A sweep during the outage must complete promptly — the in-flight
	// Observe resolves as unobserved, it does not hang until the observe
	// timeout per rule — and an unjudged round must not page anyone.
	start := time.Now()
	if alerts := svc.SweepRound(context.Background()); len(alerts) != 0 {
		t.Fatalf("outage sweep alerted: %+v", alerts)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("outage sweep took %v — in-flight observes are hanging", d)
	}

	// The network heals: the backoff loop's next dial succeeds and the
	// member rejoins the pool.
	close(gate)
	waitBackendEvent(t, be.Events(), monocle.BackendReconnected, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		alerts := svc.SweepRound(context.Background())
		if len(alerts) != 0 {
			t.Fatalf("post-reconnect sweep alerted: %+v", alerts)
		}
		recs := svc.LastSweep()
		if len(recs) == 1 && recs[0].Rule == 7 && recs[0].Error == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch never rejoined the sweep pool: %+v", recs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the dynamic-update path works again end to end: a fresh rule
	// installs over the new connection and confirms against the live data
	// plane.
	rs2 := monocle.RuleSpec{ID: 8, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.2.0/24"},
		Actions: []monocle.ActionSpec{{Output: 1}}}
	if reply, err := svc.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs2}); err != nil || reply.Verdict != "confirmed" {
		t.Fatalf("post-reconnect install: %+v, %v", reply, err)
	}
}

// TestProxyBackendReconnectBackoff counts the redial attempts: with the
// first three dials failing, the driver must keep backing off and the
// eventual backend_reconnected event must report the fourth attempt.
func TestProxyBackendReconnectBackoff(t *testing.T) {
	ports := []monocle.PortID{1, 2}
	sw := startTCPSimSwitch(t, 9, ports)
	defer sw.stop()

	be := monocle.NewProxyBackend(monocle.ProxyConfig{
		SwitchID:       9,
		SwitchAddr:     sw.addr,
		ObserveTimeout: 300 * time.Millisecond,
		ReconnectMin:   2 * time.Millisecond,
		ReconnectMax:   20 * time.Millisecond,
	},
		monocle.WithPorts(1, 2),
		monocle.WithPeers(map[monocle.PortID]uint32{1: 9, 2: 9}),
	)
	if err := be.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	var dials atomic.Int32
	restore := netx.SetDialHook(func(ctx context.Context, network, addr string) (net.Conn, error) {
		if dials.Add(1) <= 3 {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	})
	defer restore()

	sw.drop()
	ev := waitBackendEvent(t, be.Events(), monocle.BackendReconnected, 10*time.Second)
	if got := dials.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4 (3 backed-off failures + 1 success)", got)
	}
	if want := "4 attempt"; !strings.Contains(ev.Detail, want) {
		t.Fatalf("reconnect event detail %q does not report the attempt count (%q)", ev.Detail, want)
	}
}
