package monocle

// The adversarial scenario fleet: seeded, reproducible failure scenarios
// driven end-to-end through a live Service over real TCP SwitchServers —
// rule-churn storms, silent hardware divergence, switch flaps mid-sweep
// (driving the proxy driver's real reconnect machinery through the
// internal/netx fault seam), controller restart during a confirmation
// window, lossy data planes, ECMP/multicast-heavy tables, and priority
// shadowing. Every scenario declares its exact alert sequence — no false
// positives, no misses, exact recovery — and Run fails loudly on any
// departure. Scenario behaviour is byte-identical across solver worker
// budgets: the CI matrix runs each scenario at workers 1, 2, and 8 and
// compares the marshaled alert streams.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"monocle/internal/chaos"
	"monocle/internal/netx"
	"monocle/internal/switchsim"
)

// Scenario is one adversarial robustness scenario: a scripted failure
// story executed against a fresh Service wired to in-process TCP
// switches, declaring the exact alert sequence it must produce.
type Scenario struct {
	// Name identifies the scenario (CI sub-test names, trace artifacts).
	Name string
	// Description is the one-line failure story.
	Description string

	run func(e *scenarioEnv) error
}

// ScenarioResult is one scenario execution's outcome.
type ScenarioResult struct {
	// Name is the scenario's name.
	Name string
	// Workers is the solver worker budget the run used.
	Workers int
	// Rounds is the number of sweep rounds the scenario drove.
	Rounds int
	// Alerts is the full alert sequence the run produced, in raised order.
	Alerts []Alert
	// Stream is the canonical byte form of Alerts (one JSON line per
	// alert): runs of the same scenario must produce byte-identical
	// streams regardless of the worker budget.
	Stream []byte
}

// AlertKey renders an alert's identity — type, switch, and rule for
// rule-level types — the granularity at which scenarios declare their
// expected alert sequences.
func AlertKey(a Alert) string {
	switch a.Type {
	case AlertSwitchStalled, AlertBackendFlapping:
		return fmt.Sprintf("%s(switch %d)", a.Type, a.SwitchID)
	default:
		return fmt.Sprintf("%s(switch %d, rule %d)", a.Type, a.SwitchID, a.Rule)
	}
}

// Run executes the scenario under the given solver worker budget,
// checking the produced alert sequence against the scenario's declared
// one: any missing, extra, or misordered alert is an error. A non-empty
// traceDir records every switch's backend session there (WithRecordDir),
// so a failing scenario leaves a replayable trace behind.
func (sc Scenario) Run(workers int, traceDir string) (*ScenarioResult, error) {
	return sc.runOn(false, workers, traceDir)
}

// runOn is Run with a backend choice: with sim set, addSwitch registers
// SimBackend switches instead of proxies over live TCP SwitchServers, for
// scenarios that never touch the server it returns.
func (sc Scenario) runOn(sim bool, workers int, traceDir string) (*ScenarioResult, error) {
	e := &scenarioEnv{
		name:     sc.Name,
		workers:  workers,
		traceDir: traceDir,
		sim:      sim,
		servers:  make(map[uint32]*SwitchServer),
		events:   make(map[uint32]<-chan BackendEvent),
	}
	defer e.close()
	err := sc.run(e)
	res := &ScenarioResult{Name: sc.Name, Workers: workers, Rounds: e.rounds, Alerts: e.alerts}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, a := range e.alerts {
		if encErr := enc.Encode(a); encErr != nil {
			return res, encErr
		}
	}
	res.Stream = buf.Bytes()
	if err != nil {
		return res, fmt.Errorf("scenario %s (workers %d): %w", sc.Name, workers, err)
	}
	got := make([]string, len(e.alerts))
	for i, a := range e.alerts {
		got[i] = AlertKey(a)
	}
	if len(got) != len(e.expected) {
		return res, fmt.Errorf("scenario %s (workers %d): got %d alerts %v, want %d %v",
			sc.Name, workers, len(got), got, len(e.expected), e.expected)
	}
	for i := range got {
		if got[i] != e.expected[i] {
			return res, fmt.Errorf("scenario %s (workers %d): alert %d is %s, want %s (full sequence %v)",
				sc.Name, workers, i, got[i], e.expected[i], got)
		}
	}
	return res, nil
}

// scenarioEnv is the harness one scenario run executes in.
type scenarioEnv struct {
	name     string
	workers  int
	traceDir string
	sim      bool
	opts     []Option
	svc      *Service
	servers  map[uint32]*SwitchServer
	events   map[uint32]<-chan BackendEvent

	rounds   int
	alerts   []Alert
	expected []string
	cleanup  []func()
}

func (e *scenarioEnv) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	for _, srv := range e.servers {
		srv.Close()
	}
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		e.cleanup[i]()
	}
}

// service builds the scenario's Service: the worker budget under test,
// the trace recorder when the run wants artifacts, then the scenario's
// own options.
func (e *scenarioEnv) service(opts ...Option) {
	all := []Option{WithWorkers(e.workers)}
	if e.traceDir != "" {
		all = append(all, WithRecordDir(e.traceDir))
	}
	all = append(all, opts...)
	e.opts = all
	e.svc = NewService(all...)
}

// restart simulates a monitor crash/failover: the service closes (its
// store and backend connections die with it) and a fresh one resumes
// from the same options and persisted state.
func (e *scenarioEnv) restart() error {
	if err := e.svc.Close(); err != nil {
		return fmt.Errorf("closing first life: %w", err)
	}
	e.svc = NewService(e.opts...)
	if err := e.svc.Resume(context.Background()); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	for id := range e.servers {
		if be, ok := e.svc.Fleet().Backend(id); ok {
			e.events[id] = be.Events()
		}
	}
	return nil
}

// tempDir allocates a scratch directory cleaned up with the scenario.
func (e *scenarioEnv) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "monocle-scenario-")
	if err != nil {
		return "", err
	}
	e.cleanup = append(e.cleanup, func() { os.RemoveAll(dir) })
	return dir, nil
}

// addSwitch starts a SwitchServer and registers it with the service as a
// proxy-backed switch whose ports all catch their own probes. In a sim
// run it registers a SimBackend switch instead and returns no server.
func (e *scenarioEnv) addSwitch(id uint32, profile SwitchProfile, ports ...uint16) (*SwitchServer, error) {
	peers := make(map[uint16]uint32, len(ports))
	for _, p := range ports {
		peers[p] = id
	}
	spec := SwitchSpec{ID: id, Backend: "sim", Ports: ports, Peers: peers}
	var srv *SwitchServer
	if !e.sim {
		pids := make([]PortID, len(ports))
		for i, p := range ports {
			pids[i] = PortID(p)
		}
		var err error
		if srv, err = StartSwitchServer(SwitchServerConfig{ID: id, Ports: pids, Profile: profile}); err != nil {
			return nil, err
		}
		e.servers[id] = srv
		spec.Backend, spec.Address = "proxy", srv.Addr()
	}
	if _, err := e.svc.AddSwitch(spec); err != nil {
		return nil, fmt.Errorf("adding switch %d: %w", id, err)
	}
	if be, ok := e.svc.Fleet().Backend(id); ok {
		e.events[id] = be.Events()
	}
	return srv, nil
}

// sweep drives one sweep round and accumulates its alerts.
func (e *scenarioEnv) sweep() []Alert {
	alerts := e.svc.SweepRound(context.Background())
	e.alerts = append(e.alerts, alerts...)
	e.rounds++
	return alerts
}

// sweepGroups drives one sweep round restricted to the named policy
// groups and accumulates its alerts.
func (e *scenarioEnv) sweepGroups(groups ...string) []Alert {
	alerts := e.svc.SweepRound(context.Background(), groups...)
	e.alerts = append(e.alerts, alerts...)
	e.rounds++
	return alerts
}

// planHasRule reports whether the next compiled probe plan for switch id
// samples rule rid — plan membership is a pure function of (policy,
// switch, rules, round), so a scenario can know a loss will surface
// before it sweeps.
func planHasRule(svc *Service, id uint32, rid uint64) bool {
	for _, p := range svc.ProbePlans() {
		if p.Switch != id {
			continue
		}
		for _, r := range p.Rules {
			if r == rid {
				return true
			}
		}
	}
	return false
}

// apply runs one rule operation and checks the confirmation verdict.
func (e *scenarioEnv) apply(id uint32, op RuleOp, wantVerdict string) error {
	reply, err := e.svc.ApplyRule(id, op)
	if err != nil {
		return fmt.Errorf("switch %d %s rule %d: %w", id, op.Op, opRuleID(op), err)
	}
	if reply.Verdict != wantVerdict {
		return fmt.Errorf("switch %d %s rule %d: verdict %q, want %q", id, op.Op, opRuleID(op), reply.Verdict, wantVerdict)
	}
	return nil
}

// opRuleID names the rule a RuleOp addresses.
func opRuleID(op RuleOp) uint64 {
	if op.ID != 0 {
		return op.ID
	}
	if op.Rule != nil {
		return op.Rule.ID
	}
	return 0
}

// expect appends alerts to the scenario's declared sequence.
func (e *scenarioEnv) expect(keys ...string) { e.expected = append(e.expected, keys...) }

// waitEvent consumes switch id's backend event stream until an event of
// type t arrives. Because the service's event tap queues each event for
// the diff engine before re-emitting it here, an event seen by waitEvent
// is guaranteed to fold into the next sweep round.
func (e *scenarioEnv) waitEvent(id uint32, t BackendEventType, timeout time.Duration) error {
	ch, ok := e.events[id]
	if !ok {
		return fmt.Errorf("no event stream for switch %d", id)
	}
	deadline := time.After(timeout)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return fmt.Errorf("switch %d event stream closed waiting for %s", id, t)
			}
			if ev.Type == t {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("timed out waiting for %s on switch %d", t, id)
		}
	}
}

// restoreRule repairs a hardware-side rule loss injected with FailRule:
// the suppression is lifted and the rule re-applied to the data plane
// only — the expected table never believed it was gone.
func (e *scenarioEnv) restoreRule(id uint32, spec RuleSpec) error {
	e.servers[id].HealRule(spec.ID)
	return e.apply(id, RuleOp{Op: "add", Rule: &spec, Dataplane: "actual"}, "none")
}

// failKey/recoverKey spell the rule-level alert identities.
func failKey(sw uint32, rule uint64) string {
	return fmt.Sprintf("rule_failing(switch %d, rule %d)", sw, rule)
}
func recoverKey(sw uint32, rule uint64) string {
	return fmt.Sprintf("rule_recovered(switch %d, rule %d)", sw, rule)
}

// scenarioRule builds slot's deterministic rule: disjoint /24 matches so
// every rule is independently monitorable.
func scenarioRule(slot, prio int, out uint16) RuleSpec {
	return RuleSpec{
		ID:       uint64(100 + slot),
		Priority: prio,
		Match:    map[string]string{"dl_type": "0x800", "nw_dst": fmt.Sprintf("10.0.%d.0/24", slot)},
		Actions:  []ActionSpec{{Output: out}},
	}
}

// churnOutputs are the egress ports churn plans cycle through.
var churnOutputs = []uint16{2, 3, 4}

// runChurn drives a seeded chaos.Churn plan through the service,
// asserting every confirmation verdict, and returns the specs of the
// rules live at the end, keyed by slot.
//
// Modifies always change the rule's nw_tos rewrite (a fresh value per
// generation): in the scenarios' self-catching topology every port
// reflects to the same catcher switch, so an output-only modify's old
// and new behaviour would be observationally indistinguishable — the
// header rewrite is what lets the confirmation probe tell them apart.
func runChurn(e *scenarioEnv, id uint32, r *chaos.Rand, slots, n, sweepEvery int) (map[int]RuleSpec, error) {
	plan, live := chaos.Churn(r, slots, n)
	specs := make(map[int]RuleSpec)
	gen := make(map[int]int)
	for i, op := range plan {
		switch op.Kind {
		case chaos.OpAdd:
			spec := scenarioRule(op.Slot, 10, churnOutputs[r.Intn(len(churnOutputs))])
			if err := e.apply(id, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
				return nil, fmt.Errorf("plan op %d: %w", i, err)
			}
			specs[op.Slot] = spec
		case chaos.OpModify:
			spec := specs[op.Slot]
			out := spec.Actions[len(spec.Actions)-1].Output
			next := churnOutputs[(indexOf(churnOutputs, out)+1+r.Intn(len(churnOutputs)-1))%len(churnOutputs)]
			gen[op.Slot]++
			tos := uint64((gen[op.Slot]%63 + 1) * 4)
			spec.Actions = []ActionSpec{{Set: &SetFieldSpec{Field: "nw_tos", Value: tos}}, {Output: next}}
			if err := e.apply(id, RuleOp{Op: "modify", ID: spec.ID, Actions: spec.Actions}, "confirmed"); err != nil {
				return nil, fmt.Errorf("plan op %d: %w", i, err)
			}
			specs[op.Slot] = spec
		case chaos.OpDelete:
			spec := specs[op.Slot]
			if err := e.apply(id, RuleOp{Op: "delete", ID: spec.ID}, "absent"); err != nil {
				return nil, fmt.Errorf("plan op %d: %w", i, err)
			}
			delete(specs, op.Slot)
		}
		if sweepEvery > 0 && (i+1)%sweepEvery == 0 {
			e.sweep()
		}
	}
	if len(specs) != len(live) {
		return nil, fmt.Errorf("live-set mismatch: specs %d, plan says %v", len(specs), live)
	}
	return specs, nil
}

func indexOf(s []uint16, v uint16) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return 0
}

// Scenarios returns the adversarial scenario fleet. Each scenario is
// self-contained and deterministic: same seed, same faults, same exact
// alert sequence at any worker budget.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "churn_storm",
			Description: "seeded add/modify/delete storm with sweeps interleaved: every confirmation lands, no alert ever fires",
			run: func(e *scenarioEnv) error {
				e.service(WithDetectionTimeout(150 * time.Millisecond))
				if _, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4); err != nil {
					return err
				}
				if _, err := runChurn(e, 1, chaos.New(0xC0FFEE), 6, 18, 6); err != nil {
					return err
				}
				e.sweep()
				e.sweep()
				return nil // expected: no alerts at all
			},
		},
		{
			Name:        "churn_divergence",
			Description: "after a churn storm, seeded victims silently vanish from the data plane: exactly those rules alert, then recover exactly once",
			run: func(e *scenarioEnv) error {
				e.service(WithDetectionTimeout(150 * time.Millisecond))
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				r := chaos.New(0xDEADBEEF)
				specs, err := runChurn(e, 1, r, 6, 18, 0)
				if err != nil {
					return err
				}
				e.sweep() // healthy baseline: no alerts
				// Seeded victims: live slots, ascending (the differ's
				// alert order within a round).
				liveSlots := make([]int, 0, len(specs))
				for s := range specs {
					liveSlots = append(liveSlots, s)
				}
				victims := chaos.New(0xFEED).Pick(len(liveSlots), 2)
				sortInts(liveSlots)
				for _, vi := range victims {
					srv.FailRule(specs[liveSlots[vi]].ID)
				}
				e.sweep()
				for _, vi := range victims {
					e.expect(failKey(1, specs[liveSlots[vi]].ID))
				}
				for _, vi := range victims {
					if err := e.restoreRule(1, specs[liveSlots[vi]]); err != nil {
						return err
					}
				}
				e.sweep()
				for _, vi := range victims {
					e.expect(recoverKey(1, specs[liveSlots[vi]].ID))
				}
				return nil
			},
		},
		{
			Name:        "flap_midsweep",
			Description: "switch TCP session dies mid-sweep with redial gated shut; reconnect heals it and the one failed rule recovers exactly once",
			run: func(e *scenarioEnv) error {
				e.service(
					WithDetectionTimeout(150*time.Millisecond),
					WithReconnectBackoff(25*time.Millisecond, 100*time.Millisecond),
					WithDebounce(2),
				)
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				r100 := scenarioRule(0, 30, 2)
				r101 := scenarioRule(1, 20, 3)
				r102 := scenarioRule(2, 10, 4)
				for _, rs := range []RuleSpec{r100, r101, r102} {
					spec := rs
					if err := e.apply(1, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
				}
				e.sweep() // healthy
				srv.FailRule(r101.ID)
				e.sweep() // bad streak 1: debounced, quiet
				e.sweep() // bad streak 2: rule_failing
				e.expect(failKey(1, r101.ID))

				// Gate the redial path shut through the transport fault
				// seam, then kill the connection after exactly one more
				// caught probe — the flap lands mid-sweep and the driver's
				// reconnect machinery spins against the gate.
				restore := netx.SetDialHook(func(ctx context.Context, network, addr string) (net.Conn, error) {
					return nil, fmt.Errorf("chaos: redial gated")
				})
				srv.DropAfterCatches(1)
				e.sweep() // flap mid-sweep: no new alerts
				e.sweep() // full-outage round: folds skip, stall not yet reached
				restore()
				if err := e.waitEvent(1, BackendReconnected, 10*time.Second); err != nil {
					return err
				}
				if err := e.restoreRule(1, r101); err != nil {
					return err
				}
				e.sweep() // exactly one rule_recovered for the healed rule
				e.expect(recoverKey(1, r101.ID))
				return nil
			},
		},
		{
			Name:        "backend_flapping",
			Description: "the transport dies and reconnects every round: rules stay healthy, and exactly one backend_flapping alert fires at the threshold",
			run: func(e *scenarioEnv) error {
				e.service(
					WithDetectionTimeout(150*time.Millisecond),
					WithReconnectBackoff(10*time.Millisecond, 50*time.Millisecond),
					WithBackendFlapWindow(6, 3),
				)
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2)
				if err != nil {
					return err
				}
				for slot := 0; slot < 2; slot++ {
					spec := scenarioRule(slot, 10, 2)
					if err := e.apply(1, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
				}
				e.sweep() // healthy baseline
				for i := 0; i < 3; i++ {
					srv.Drop()
					if err := e.waitEvent(1, BackendReconnected, 10*time.Second); err != nil {
						return fmt.Errorf("flap %d: %w", i, err)
					}
					e.sweep()
				}
				// Third completed cycle crosses the threshold; the alert
				// fires once and stays latched while the flapping lasts.
				e.expect("backend_flapping(switch 1)")
				return nil
			},
		},
		{
			Name:        "confirm_window_drop",
			Description: "a rule's confirmation window is lost and the monitor restarts before the next sweep: no false alerts survive the failover, and a real fault alerts exactly once",
			run: func(e *scenarioEnv) error {
				stateDir, err := e.tempDir()
				if err != nil {
					return err
				}
				e.service(
					WithDetectionTimeout(120*time.Millisecond),
					WithStateDir(stateDir),
				)
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3)
				if err != nil {
					return err
				}
				ra := scenarioRule(0, 20, 2)
				if err := e.apply(1, RuleOp{Op: "add", Rule: &ra}, "confirmed"); err != nil {
					return err
				}
				e.sweep() // healthy
				// The data plane goes dark exactly during rule B's
				// confirmation window: the FlowMod commits, the probe is
				// eaten, the window closes unconfirmed ("absent").
				srv.SetLossy(true)
				rb := scenarioRule(1, 10, 3)
				if err := e.apply(1, RuleOp{Op: "add", Rule: &rb}, "absent"); err != nil {
					return err
				}
				// Controller failover mid-story: the monitor dies here and
				// a fresh process resumes from the WAL.
				if err := e.restart(); err != nil {
					return err
				}
				srv.SetLossy(false)
				e.sweep() // both rules confirmed; the failover raised nothing
				srv.FailRule(ra.ID)
				e.sweep()
				e.expect(failKey(1, ra.ID))
				if err := e.restoreRule(1, ra); err != nil {
					return err
				}
				e.sweep()
				e.expect(recoverKey(1, ra.ID))
				return nil
			},
		},
		{
			Name:        "slow_lossy",
			Description: "a slow switch profile whose data plane starts eating every probe: every monitorable rule alerts, then recovers, exactly once each",
			run: func(e *scenarioEnv) error {
				e.service(WithDetectionTimeout(150 * time.Millisecond))
				srv, err := e.addSwitch(1, switchsim.DellS4810(), 1, 2, 3, 4)
				if err != nil {
					return err
				}
				rules := []RuleSpec{
					scenarioRule(0, 30, 2),
					scenarioRule(1, 20, 3),
					scenarioRule(2, 10, 4),
				}
				for _, rs := range rules {
					spec := rs
					if err := e.apply(1, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
				}
				e.sweep() // healthy
				srv.SetLossy(true)
				e.sweep() // every positive probe times out: all rules fail
				for _, rs := range rules {
					e.expect(failKey(1, rs.ID))
				}
				srv.SetLossy(false)
				e.sweep()
				for _, rs := range rules {
					e.expect(recoverKey(1, rs.ID))
				}
				return nil
			},
		},
		{
			Name:        "ecmp_multicast",
			Description: "a multicast-heavy live table and an ECMP table sweep clean; each loses its group rule silently and alerts exactly once",
			run: func(e *scenarioEnv) error {
				e.service(
					WithDetectionTimeout(200*time.Millisecond),
					WithCounting(true),
				)
				// The multicast-heavy half runs over live TCP. ECMP groups
				// are not expressible on the OF1.0 wire, so the ECMP half
				// runs on a sim-backed member of the same fleet, faulted
				// through the behind-the-back dataplane hook instead of
				// the switch server.
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				if _, err := e.svc.AddSwitch(SwitchSpec{ID: 2, Backend: "sim", Ports: []uint16{1, 2, 3, 4}}); err != nil {
					return err
				}
				mcast := RuleSpec{ID: 201, Priority: 20,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.2.0.0/24"},
					Actions: []ActionSpec{{Output: 2}, {Output: 3}}}
				plain := RuleSpec{ID: 202, Priority: 20,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.4.0.0/24"},
					Actions: []ActionSpec{{Output: 4}}}
				r := chaos.New(0xECA9)
				extras := []RuleSpec{
					scenarioRule(0, 10, churnOutputs[r.Intn(len(churnOutputs))]),
					scenarioRule(1, 10, churnOutputs[r.Intn(len(churnOutputs))]),
				}
				for _, rs := range append([]RuleSpec{mcast, plain}, extras...) {
					spec := rs
					if err := e.apply(1, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
				}
				ecmp := RuleSpec{ID: 200, Priority: 20,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.1.0.0/24"},
					Actions: []ActionSpec{{ECMP: []uint16{2, 3}}}}
				if err := e.apply(2, RuleOp{Op: "add", Rule: &ecmp}, "confirmed"); err != nil {
					return err
				}
				e.sweep() // healthy
				// Each switch loses its group rule from the data plane only.
				srv.FailRule(mcast.ID)
				if err := e.apply(2, RuleOp{Op: "delete", ID: ecmp.ID, Dataplane: "actual"}, "none"); err != nil {
					return err
				}
				e.sweep()
				e.expect(failKey(1, mcast.ID), failKey(2, ecmp.ID))
				if err := e.restoreRule(1, mcast); err != nil {
					return err
				}
				if err := e.apply(2, RuleOp{Op: "add", Rule: &ecmp, Dataplane: "actual"}, "none"); err != nil {
					return err
				}
				e.sweep()
				e.expect(recoverKey(1, mcast.ID), recoverKey(2, ecmp.ID))
				return nil
			},
		},
		{
			Name:        "priority_shadow",
			Description: "a fully shadowed rule stays neutral while the shadowing rule's hardware loss is pinned on the right rule",
			run: func(e *scenarioEnv) error {
				e.service(WithDetectionTimeout(150 * time.Millisecond))
				srv, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				// Each layer rewrites nw_tos differently: in the
				// self-catching topology all ports reflect to the same
				// catcher, so falling through to the next layer must be
				// observable in the header itself, exactly as the paper's
				// probe generation distinguishes overlapping rules by
				// their rewrites.
				hi := RuleSpec{ID: 300, Priority: 20,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.3.0.0/24"},
					Actions: []ActionSpec{{Set: &SetFieldSpec{Field: "nw_tos", Value: 64}}, {Output: 2}}}
				lo := RuleSpec{ID: 301, Priority: 10,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.3.0.0/16"},
					Actions: []ActionSpec{{Output: 3}}}
				shadowed := RuleSpec{ID: 302, Priority: 5,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.3.0.0/16"},
					Actions: []ActionSpec{{Set: &SetFieldSpec{Field: "nw_tos", Value: 128}}, {Output: 4}}}
				if err := e.apply(1, RuleOp{Op: "add", Rule: &hi}, "confirmed"); err != nil {
					return err
				}
				if err := e.apply(1, RuleOp{Op: "add", Rule: &lo}, "confirmed"); err != nil {
					return err
				}
				// Fully covered by rule 301 at higher priority: structurally
				// unverifiable (§3.5), and must stay neutral, not failing.
				if err := e.apply(1, RuleOp{Op: "add", Rule: &shadowed}, "unmonitorable"); err != nil {
					return err
				}
				e.sweep() // healthy; the shadowed rule raises nothing
				// Losing the /24 rule makes its traffic fall to the /16 —
				// the exact absent-hypothesis outcome, pinned on rule 300.
				srv.FailRule(hi.ID)
				e.sweep()
				e.expect(failKey(1, hi.ID))
				if err := e.restoreRule(1, hi); err != nil {
					return err
				}
				e.sweep()
				e.expect(recoverKey(1, hi.ID))
				return nil
			},
		},
		{
			Name:        "policy_groups",
			Description: "a two-group monitoring policy over live switches: the edge filter mutes the non-customer loss, the core sample surfaces its loss exactly on the round the schedule probes it",
			run: func(e *scenarioEnv) error {
				e.service(WithDetectionTimeout(150 * time.Millisecond))
				srv1, err := e.addSwitch(1, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				srv2, err := e.addSwitch(2, SwitchProfile{}, 1, 2, 3, 4)
				if err != nil {
					return err
				}
				// The edge switch: a customer-prefix rule inside the alert
				// filter and a guest rule outside it.
				cust := scenarioRule(0, 20, 2)
				guest := RuleSpec{ID: 110, Priority: 10,
					Match:   map[string]string{"dl_type": "0x800", "nw_dst": "192.168.0.0/24"},
					Actions: []ActionSpec{{Output: 3}}}
				for _, rs := range []RuleSpec{cust, guest} {
					spec := rs
					if err := e.apply(1, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
				}
				// The core switch: four rules sampled half per round.
				var core []RuleSpec
				for slot := 0; slot < 4; slot++ {
					spec := scenarioRule(slot, 10, churnOutputs[slot%len(churnOutputs)])
					if err := e.apply(2, RuleOp{Op: "add", Rule: &spec}, "confirmed"); err != nil {
						return err
					}
					core = append(core, spec)
				}
				pol, err := ParsePolicy(`
policy edge {
  select switch 1
  debounce 1
  alert only nw_dst in 10.0.0.0/8
}

policy core {
  select switch 2
  sample 50% seed 3
}
`)
				if err != nil {
					return err
				}
				e.svc.SetPolicy(pol)
				e.sweep() // healthy baseline across both groups

				// One hardware loss per class behind the verifier's back —
				// plus the guest rule, whose loss the filter must mute.
				srv1.FailRule(cust.ID)
				srv1.FailRule(guest.ID)
				victim := core[2]
				srv2.FailRule(victim.ID)

				e.sweepGroups("edge")
				e.expect(failKey(1, cust.ID)) // the 192.168/24 loss stays silent

				// The core loss surfaces exactly on the round the sample
				// schedule probes the victim; until then the frozen entry
				// raises nothing.
				coreRound := func(want string) error {
					for round := 0; round < 32; round++ {
						sampled := planHasRule(e.svc, 2, victim.ID)
						alerts := e.sweepGroups("core")
						if sampled {
							e.expect(want)
							return nil
						}
						if len(alerts) != 0 {
							return fmt.Errorf("unsampled core round raised %v", alerts)
						}
					}
					return fmt.Errorf("rule %d never sampled in 32 core rounds", victim.ID)
				}
				if err := coreRound(failKey(2, victim.ID)); err != nil {
					return err
				}

				// Recovery mirrors the split: the filtered rule heals
				// silently, the others alert exactly once.
				if err := e.restoreRule(1, cust); err != nil {
					return err
				}
				if err := e.restoreRule(1, guest); err != nil {
					return err
				}
				e.sweepGroups("edge")
				e.expect(recoverKey(1, cust.ID))
				if err := e.restoreRule(2, victim); err != nil {
					return err
				}
				return coreRound(recoverKey(2, victim.ID))
			},
		},
	}
}

// sortInts sorts ascending in place (avoids importing sort for one call
// site — kept tiny and allocation-free).
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
