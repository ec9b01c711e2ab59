package monocle_test

// Batch-observation seam tests: the differential proof that routing a
// sweep's verdicts through ObserveBatch is bit-identical to the
// sequential one-shot path (for any worker budget), the single-path
// check that every driver's Observe is a batch of one, the live-driver
// batch/one-shot equivalence over real TCP, the seam-overhead alloc
// pin, and the zero-rule-round metrics guard.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"monocle"
)

// plainBackend forwards every Backend method to the wrapped driver
// except ObserveBatch, which it runs as a sequential loop of one-probe
// Observe calls — the reference the batched path is held to.
type plainBackend struct{ inner monocle.Backend }

func (p plainBackend) SwitchID() uint32                    { return p.inner.SwitchID() }
func (p plainBackend) Connect(ctx context.Context) error   { return p.inner.Connect(ctx) }
func (p plainBackend) Close() error                        { return p.inner.Close() }
func (p plainBackend) Apply(op monocle.BackendOp) error    { return p.inner.Apply(op) }
func (p plainBackend) Epoch() uint64                       { return p.inner.Epoch() }
func (p plainBackend) Events() <-chan monocle.BackendEvent { return p.inner.Events() }
func (p plainBackend) EventDrops() uint64                  { return p.inner.EventDrops() }
func (p plainBackend) Observe(ctx context.Context, pr *monocle.Probe, e monocle.Expectation) (monocle.Verdict, error) {
	return p.inner.Observe(ctx, pr, e)
}
func (p plainBackend) ObserveBatch(ctx context.Context, probes []*monocle.Probe, expects []monocle.Expectation) ([]monocle.Verdict, []error) {
	verdicts := make([]monocle.Verdict, len(probes))
	errs := make([]error, len(probes))
	for i, pr := range probes {
		verdicts[i], errs[i] = p.Observe(ctx, pr, expects[i])
	}
	return verdicts, errs
}

// seamRule builds a plainly monitorable per-switch rule.
func seamRule(sw uint32, i uint64) *monocle.Rule {
	return &monocle.Rule{ID: 100*uint64(sw) + i, Priority: 10,
		Match: monocle.MatchAll().
			WithExact(monocle.EthType, monocle.EthTypeIPv4).
			WithExact(monocle.IPSrc, 10<<24|uint64(sw)<<8|i),
		Actions: []monocle.Action{monocle.Output(2)},
	}
}

// seamPath is a fleet of SimBackends folded through the batch seam; with
// strip=true the backends are wrapped so a sequential loop of one-probe
// Observe calls runs instead of the batched path.
type seamPath struct {
	fleet  *monocle.Fleet
	differ *monocle.Differ
	sims   map[uint32]*monocle.SimBackend
}

func newSeamPath(t *testing.T, budget int, strip bool) *seamPath {
	t.Helper()
	opts := []monocle.Option{monocle.WithWorkers(budget), monocle.WithDebounce(2)}
	sp := &seamPath{
		fleet:  monocle.NewFleet(opts...),
		differ: monocle.NewDiffer(opts...),
		sims:   map[uint32]*monocle.SimBackend{},
	}
	for id := uint32(1); id <= 3; id++ {
		sim := monocle.NewSimBackend(id)
		sp.sims[id] = sim
		var be monocle.Backend = sim
		if strip {
			be = plainBackend{sim}
		}
		v, err := sp.fleet.AddBackend(be)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 12; i++ {
			r := seamRule(id, i)
			if err := sim.Apply(monocle.BackendOp{Op: "add", Rule: r.Clone()}); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sp
}

// round sweeps once and folds the verdicts through ObserveBatch — the
// same contiguous-run grouping SweepRound uses — returning the records
// and alerts as canonical JSON.
func (sp *seamPath) round(t *testing.T, ctx context.Context) (string, string) {
	t.Helper()
	evs := sp.fleet.Sweep(ctx)
	var recs []monocle.ResultRecord
	for lo := 0; lo < len(evs); {
		hi := lo + 1
		for hi < len(evs) && evs[hi].SwitchID == evs[lo].SwitchID {
			hi++
		}
		be, ok := sp.fleet.Backend(evs[lo].SwitchID)
		var probes []*monocle.Probe
		var expects []monocle.Expectation
		if ok {
			for i := lo; i < hi; i++ {
				if evs[i].Result.Probe != nil {
					probes = append(probes, evs[i].Result.Probe)
					expects = append(expects, monocle.ExpectPresent)
				}
			}
		}
		var verdicts []monocle.Verdict
		var errs []error
		if len(probes) > 0 {
			verdicts, errs = monocle.ObserveBatch(ctx, be, probes, expects)
		}
		j := 0
		for i := lo; i < hi; i++ {
			ev := evs[i]
			if ok && ev.Result.Probe != nil {
				if errs[j] == nil {
					sp.differ.ObserveVerdict(ev, verdicts[j])
				} else {
					sp.differ.Observe(ev)
				}
				j++
			} else {
				sp.differ.Observe(ev)
			}
			recs = append(recs, ev.Record())
		}
		lo = hi
	}
	alerts := sp.differ.EndSweep()
	rj, _ := json.Marshal(recs)
	aj, _ := json.Marshal(alerts)
	return string(rj), string(aj)
}

// TestBatchObserveDifferential: the batched fast path and the
// sequential one-shot fallback produce bit-identical sweep records and
// alert streams across a five-round fault script, for worker budgets
// 1, 2, and 8 — and the outputs are identical across the budgets too.
func TestBatchObserveDifferential(t *testing.T) {
	ctx := context.Background()
	var perBudget []string
	for _, budget := range []int{1, 2, 8} {
		batch := newSeamPath(t, budget, false)
		plain := newSeamPath(t, budget, true)
		victim := seamRule(2, 5)
		mutate := []func(sp *seamPath){
			func(*seamPath) {}, // healthy baseline
			func(sp *seamPath) { // hardware loses the rule behind the verifier's back
				if err := sp.sims[2].Apply(monocle.BackendOp{Op: "delete", ID: victim.ID, Rule: victim.Clone()}); err != nil {
					t.Fatal(err)
				}
			},
			func(*seamPath) {}, // latched: the debounce-2 alert fires here
			func(sp *seamPath) { // hardware recovers
				if err := sp.sims[2].Apply(monocle.BackendOp{Op: "add", Rule: victim.Clone()}); err != nil {
					t.Fatal(err)
				}
			},
			func(*seamPath) {},
		}
		var transcript []string
		for i, m := range mutate {
			m(batch)
			m(plain)
			bRecs, bAlerts := batch.round(t, ctx)
			pRecs, pAlerts := plain.round(t, ctx)
			if bRecs != pRecs {
				t.Fatalf("budget %d round %d: sweep records diverge\nbatch: %s\nplain: %s", budget, i, bRecs, pRecs)
			}
			if bAlerts != pAlerts {
				t.Fatalf("budget %d round %d: alerts diverge\nbatch: %s\nplain: %s", budget, i, bAlerts, pAlerts)
			}
			transcript = append(transcript, bRecs, bAlerts)
		}
		// The script must actually exercise the alert path.
		if !strings.Contains(transcript[5], "rule_failing") {
			t.Fatalf("budget %d: round 2 raised no failing alert: %s", budget, transcript[5])
		}
		if !strings.Contains(transcript[7], "rule_recovered") {
			t.Fatalf("budget %d: round 3 raised no recovery alert: %s", budget, transcript[7])
		}
		perBudget = append(perBudget, strings.Join(transcript, "\n"))
	}
	if perBudget[0] != perBudget[1] || perBudget[0] != perBudget[2] {
		t.Fatal("sweep outputs differ across worker budgets")
	}
}

// probePair installs a healthy and a soon-to-fail rule on switch sw —
// in be's data plane and in a fresh Verifier built with opts — and
// returns their confirmation probes.
func probePair(t *testing.T, be monocle.Backend, sw uint32, opts ...monocle.Option) (healthy, failing *monocle.Probe) {
	t.Helper()
	v, err := monocle.NewVerifier(append([]monocle.Option{monocle.WithProbeTag(uint64(sw))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var probes [2]*monocle.Probe
	for i := range probes {
		r := seamRule(sw, uint64(i))
		if err := be.Apply(monocle.BackendOp{Op: "add", Rule: r.Clone()}); err != nil {
			t.Fatal(err)
		}
		if probes[i], err = v.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return probes[0], probes[1]
}

// TestObserveIsBatchOfOne: for every built-in driver, Observe equals
// ObserveBatch of a batch of one, in verdict and in error, for a healthy
// rule, a rule failed in the data plane, a cancelled context, and a
// closed backend. The replay driver re-serves the record driver's trace.
func TestObserveIsBatchOfOne(t *testing.T) {
	ctx := context.Background()
	var (
		trace              bytes.Buffer
		recHealthy, recBad *monocle.Probe
	)
	drivers := []struct {
		name string
		// open returns a connected driver with a healthy and a failed
		// rule in its data plane, and their probes.
		open func(t *testing.T) (be monocle.Backend, healthy, failed *monocle.Probe)
	}{
		{"sim", func(t *testing.T) (monocle.Backend, *monocle.Probe, *monocle.Probe) {
			sim := monocle.NewSimBackend(1)
			healthy, failed := probePair(t, sim, 1)
			if err := sim.Apply(monocle.BackendOp{Op: "delete", ID: failed.RuleID}); err != nil {
				t.Fatal(err)
			}
			return sim, healthy, failed
		}},
		{"proxy", func(t *testing.T) (monocle.Backend, *monocle.Probe, *monocle.Probe) {
			ports := []monocle.PortID{1, 2, 3, 4}
			srv, err := monocle.StartSwitchServer(monocle.SwitchServerConfig{ID: 9, Ports: ports})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			peers := map[monocle.PortID]uint32{1: 9, 2: 9, 3: 9, 4: 9}
			pb := monocle.NewProxyBackend(monocle.ProxyConfig{
				SwitchID: 9, SwitchAddr: srv.Addr(), ObserveTimeout: 300 * time.Millisecond,
			}, monocle.WithPorts(ports...), monocle.WithPeers(peers))
			if err := pb.Connect(ctx); err != nil {
				t.Fatal(err)
			}
			healthy, failed := probePair(t, pb, 9, monocle.WithPorts(ports...), monocle.WithPeers(peers))
			srv.FailRule(failed.RuleID)
			return pb, healthy, failed
		}},
		{"record", func(t *testing.T) (monocle.Backend, *monocle.Probe, *monocle.Probe) {
			sim := monocle.NewSimBackend(2)
			recHealthy, recBad = probePair(t, sim, 2)
			if err := sim.Apply(monocle.BackendOp{Op: "delete", ID: recBad.RuleID}); err != nil {
				t.Fatal(err)
			}
			tw, err := monocle.NewTraceWriter(&trace, monocle.TraceHeader{Switch: 2})
			if err != nil {
				t.Fatal(err)
			}
			return monocle.NewRecordBackend(sim, tw), recHealthy, recBad
		}},
		{"replay", func(t *testing.T) (monocle.Backend, *monocle.Probe, *monocle.Probe) {
			tr, err := monocle.DecodeTrace(bytes.NewReader(trace.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return monocle.NewReplayBackend(tr), recHealthy, recBad
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			be, healthy, failed := d.open(t)
			defer be.Close()
			if err := be.Connect(ctx); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			cases := []struct {
				name    string
				ctx     context.Context
				probe   *monocle.Probe
				before  func()
				verdict monocle.Verdict
				err     error
			}{
				{"healthy", ctx, healthy, nil, monocle.VerdictConfirmed, nil},
				{"failed", ctx, failed, nil, monocle.VerdictAbsent, nil},
				{"cancelled", cancelled, healthy, nil, monocle.VerdictUnexpected, context.Canceled},
				{"closed", ctx, healthy, func() { be.Close() }, monocle.VerdictUnexpected, monocle.ErrBackendClosed},
			}
			for _, c := range cases {
				if c.before != nil {
					c.before()
				}
				v, err := be.Observe(c.ctx, c.probe, monocle.ExpectPresent)
				vs, errs := be.ObserveBatch(c.ctx, []*monocle.Probe{c.probe}, []monocle.Expectation{monocle.ExpectPresent})
				if len(vs) != 1 || len(errs) != 1 {
					t.Fatalf("%s: batch of one returned %d verdicts, %d errors", c.name, len(vs), len(errs))
				}
				if v != vs[0] || err != errs[0] {
					t.Fatalf("%s: Observe = (%v, %v), ObserveBatch of one = (%v, %v)", c.name, v, err, vs[0], errs[0])
				}
				if v != c.verdict || !errors.Is(err, c.err) {
					t.Fatalf("%s: got (%v, %v), want (%v, %v)", c.name, v, err, c.verdict, c.err)
				}
			}
		})
	}
}

// TestProxyObserveBatchMatchesOneShot: over a real TCP switch, the
// pipelined ObserveBatch reports the same per-probe verdicts as N
// serialized Observe round trips — including a rule failed behind the
// verifier's back mid-set.
func TestProxyObserveBatchMatchesOneShot(t *testing.T) {
	ports := []monocle.PortID{1, 2, 3, 4}
	srv, err := monocle.StartSwitchServer(monocle.SwitchServerConfig{ID: 9, Ports: ports, Profile: monocle.SwitchProfile{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peers := map[monocle.PortID]uint32{1: 9, 2: 9, 3: 9, 4: 9}
	be := monocle.NewProxyBackend(monocle.ProxyConfig{
		SwitchID:       9,
		SwitchAddr:     srv.Addr(),
		ObserveTimeout: 300 * time.Millisecond,
	}, monocle.WithPorts(ports...), monocle.WithPeers(peers))
	if err := be.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	v, err := monocle.NewVerifier(monocle.WithProbeTag(9), monocle.WithPorts(ports...), monocle.WithPeers(peers))
	if err != nil {
		t.Fatal(err)
	}
	var probes []*monocle.Probe
	var expects []monocle.Expectation
	for i := uint64(0); i < 8; i++ {
		r := seamRule(9, i)
		if err := be.Apply(monocle.BackendOp{Op: "add", Rule: r.Clone()}); err != nil {
			t.Fatal(err)
		}
		p, err := v.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
		expects = append(expects, monocle.ExpectPresent)
	}
	// One rule fails in the data plane only: the batch must judge it
	// absent exactly like the one-shot path, amid confirmed neighbours.
	srv.FailRule(seamRule(9, 3).ID)

	ctx := context.Background()
	oneShot := make([]monocle.Verdict, len(probes))
	for i, p := range probes {
		verdict, err := be.Observe(ctx, p, expects[i])
		if err != nil {
			t.Fatalf("one-shot observe %d: %v", i, err)
		}
		oneShot[i] = verdict
	}
	verdicts, errs := monocle.ObserveBatch(ctx, be, probes, expects)
	for i := range probes {
		if errs[i] != nil {
			t.Fatalf("batch observe %d: %v", i, errs[i])
		}
		if verdicts[i] != oneShot[i] {
			t.Fatalf("probe %d: batch verdict %v != one-shot %v", i, verdicts[i], oneShot[i])
		}
	}
	if oneShot[3] != monocle.VerdictAbsent {
		t.Fatalf("failed rule judged %v, want %v", oneShot[3], monocle.VerdictAbsent)
	}
	for i, verdict := range oneShot {
		if i != 3 && verdict != monocle.VerdictConfirmed {
			t.Fatalf("healthy rule %d judged %v", i, verdict)
		}
	}
}

// TestSimBackendObserveBatchAllocs pins the batch seam's overhead: a
// 64-probe ObserveBatch may allocate at most the two result slices on
// top of what 64 one-shot Observe calls cost. (The per-probe evaluation
// itself allocates — what the pin bounds is the seam.)
func TestSimBackendObserveBatchAllocs(t *testing.T) {
	be := monocle.NewSimBackend(1)
	v, err := monocle.NewVerifier(monocle.WithProbeTag(1))
	if err != nil {
		t.Fatal(err)
	}
	var probes []*monocle.Probe
	var expects []monocle.Expectation
	for i := uint64(0); i < 64; i++ {
		r := seamRule(1, i)
		if err := be.Apply(monocle.BackendOp{Op: "add", Rule: r.Clone()}); err != nil {
			t.Fatal(err)
		}
		p, err := v.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
		expects = append(expects, monocle.ExpectPresent)
	}
	ctx := context.Background()
	oneShot := testing.AllocsPerRun(100, func() {
		for i, p := range probes {
			if _, err := be.Observe(ctx, p, expects[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	batch := testing.AllocsPerRun(100, func() {
		if _, errs := be.ObserveBatch(ctx, probes, expects); errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	if batch > oneShot+2 {
		t.Fatalf("batch ObserveBatch allocates %.0f/call, one-shot loop %.0f: the seam must add at most the 2 result slices", batch, oneShot)
	}
}

// TestZeroRulePlannedRoundMetrics: a policy round that plans zero rules
// (an empty-table group) must fold cleanly — no divide-by-zero in the
// per-rule latency metrics, zeros instead of NaN/Inf, and a /metrics
// snapshot that still marshals to JSON.
func TestZeroRulePlannedRoundMetrics(t *testing.T) {
	pol, err := monocle.ParsePolicy(`policy quietgroup {
  select tag "quiet"
  every 10ms
}`)
	if err != nil {
		t.Fatal(err)
	}
	svc := monocle.NewService(monocle.WithWorkers(1), monocle.WithPolicy(pol))
	defer svc.Close()
	if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: 1, Tags: []string{"quiet"}}); err != nil {
		t.Fatal(err)
	}
	// No rules installed: the compiled plan samples zero rules.
	if alerts := svc.SweepRound(context.Background()); len(alerts) != 0 {
		t.Fatalf("empty round raised alerts: %v", alerts)
	}
	m := svc.Metrics()
	if m.Rounds != 1 || m.LastRoundRules != 0 {
		t.Fatalf("rounds=%d lastRoundRules=%d, want 1 and 0", m.Rounds, m.LastRoundRules)
	}
	if m.LastRoundMicrosPerRule != 0 {
		t.Fatalf("LastRoundMicrosPerRule = %v for a zero-rule round, want 0", m.LastRoundMicrosPerRule)
	}
	found := false
	for _, g := range m.Groups {
		if g.Group != "quietgroup" {
			continue
		}
		found = true
		if g.Rounds != 1 || g.LastRoundRules != 0 {
			t.Fatalf("group metrics %+v, want 1 round of 0 rules", g)
		}
		if g.LastRoundMicrosPerRule != 0 {
			t.Fatalf("group LastRoundMicrosPerRule = %v for a zero-rule round, want 0", g.LastRoundMicrosPerRule)
		}
	}
	if !found {
		t.Fatalf("group quietgroup missing from metrics: %+v", m.Groups)
	}
	// A NaN or Inf would fail here: encoding/json rejects them.
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metrics snapshot does not marshal: %v", err)
	}
}
