package monocle_test

// Policy-layer end-to-end tests: a live service driven through PUT
// /policy splits its fleet into an edge group (fast cadence, filtered
// alerts) and a core group (slow cadence, sampled tables), each sweeping
// on its own clock with exactly the declared alert set; an invalid PUT
// is rejected with the source position and leaves the running plan
// untouched. A determinism test pins the whole policy pipeline — plan
// compilation, seeded sampling, alert folding — byte-identical across
// solver worker budgets, and a cancellation test pins that Run threads
// its context into the sweep so a drain aborts a blocked round.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"monocle"
)

// put issues a PUT with a raw body (the policy endpoints speak plain
// policy text, not JSON).
func (c *svcClient) put(path, body string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodPut, c.base+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("PUT %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// policyE2EText is the two-class policy the e2e test installs: edge
// switches sweep fast and alert only on the customer prefix; core
// switches sweep slow and sample a quarter of their tables per round.
const policyE2EText = `
policy edge {
  select tag "edge"
  every 10ms
  debounce 1
  alert only nw_dst in 10.0.0.0/8
}

policy core {
  select tag "core"
  every 120ms
  sample 25% seed 11
}
`

func TestPolicyEndToEndHTTP(t *testing.T) {
	svc := monocle.NewService(
		monocle.WithWorkers(2),
		monocle.WithSteadyInterval(5*time.Millisecond),
	)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &svcClient{t: t, base: ts.URL}

	// No policy yet: GET /policy is a 404, not an empty document.
	if status, _ := c.get("/policy"); status != http.StatusNotFound {
		t.Fatalf("GET /policy without a policy: status %d, want 404", status)
	}

	// Two switch classes, tagged at registration: edge (1, 2), core (3, 4).
	for id := uint32(1); id <= 4; id++ {
		tag := "edge"
		if id >= 3 {
			tag = "core"
		}
		spec := monocle.SwitchSpec{ID: id, Tags: []string{tag}}
		if status, body := c.post("/switches", spec, nil); status != http.StatusCreated {
			t.Fatalf("adding switch %d: status %d body %s", id, status, body)
		}
	}
	// Edge switches carry a customer-prefix rule (inside the alert
	// filter) and a guest rule outside it; core switches carry four
	// rules so the 25% sample is a strict subset each round.
	addRule := func(sw uint32, id uint64, prio int, dst string, out uint16) {
		t.Helper()
		var reply monocle.UpdateReply
		op := monocle.RuleOp{Op: "add", Rule: &monocle.RuleSpec{
			ID: id, Priority: prio,
			Match:   map[string]string{"dl_type": "0x800", "nw_dst": dst},
			Actions: []monocle.ActionSpec{{Output: out}},
		}}
		status, body := c.post(fmt.Sprintf("/switches/%d/rules", sw), op, &reply)
		if status != http.StatusOK || reply.Verdict != "confirmed" {
			t.Fatalf("rule %d on switch %d: status %d verdict %q body %s", id, sw, status, reply.Verdict, body)
		}
	}
	for _, sw := range []uint32{1, 2} {
		addRule(sw, 1, 20, fmt.Sprintf("10.0.%d.0/24", sw), 2)
		addRule(sw, 2, 10, fmt.Sprintf("192.168.%d.0/24", sw), 3)
	}
	for _, sw := range []uint32{3, 4} {
		for j := uint64(1); j <= 4; j++ {
			addRule(sw, j, 10+int(j), fmt.Sprintf("10.%d.%d.0/24", j, sw), uint16(j+1))
		}
	}

	// Install the policy over the wire: the response names the groups
	// and where every switch landed.
	var installed struct {
		Groups      []string            `json:"groups"`
		Assignments map[string][]uint32 `json:"assignments"`
	}
	status, body := c.put("/policy", policyE2EText)
	if status != http.StatusOK {
		t.Fatalf("PUT /policy: status %d body %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &installed); err != nil {
		t.Fatalf("bad PUT /policy response %q: %v", body, err)
	}
	wantAsn := map[string][]uint32{"edge": {1, 2}, "core": {3, 4}}
	for g, want := range wantAsn {
		if got := installed.Assignments[g]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("group %q resolved to switches %v, want %v (full response %s)", g, got, want, body)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v", err)
		}
	}()

	// groupMetrics polls GET /metrics until cond holds over the per-group
	// counters.
	groupMetrics := func(cond func(map[string]monocle.GroupMetrics) bool) map[string]monocle.GroupMetrics {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var m monocle.ServiceMetrics
			if status, body := c.get("/metrics"); status != http.StatusOK {
				t.Fatalf("GET /metrics: status %d", status)
			} else if err := json.Unmarshal([]byte(body), &m); err != nil {
				t.Fatalf("bad metrics %q: %v", body, err)
			}
			byName := make(map[string]monocle.GroupMetrics, len(m.Groups))
			for _, g := range m.Groups {
				byName[g.Group] = g
			}
			if cond(byName) {
				return byName
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("metrics never reached the expected per-group state")
		return nil
	}

	// Each group sweeps at its own cadence: by the time the slow core
	// group has finished a few rounds, the 12×-faster edge group must
	// have completed strictly more.
	groups := groupMetrics(func(g map[string]monocle.GroupMetrics) bool {
		return g["core"].Rounds >= 3
	})
	if e, co := groups["edge"], groups["core"]; e.Rounds < 2*co.Rounds {
		t.Fatalf("edge group swept %d rounds to core's %d; a 10ms cadence should far outpace 120ms", e.Rounds, co.Rounds)
	}
	if e := groups["edge"]; e.Switches != 2 || groups["core"].Switches != 2 {
		t.Fatalf("group membership wrong: %+v", groups)
	}
	if as := c.alerts(); len(as) != 0 {
		t.Fatalf("healthy fleet raised alerts: %+v", as)
	}

	// Three hardware losses behind the verifier's back: the filtered
	// edge rule must stay silent, the customer edge rule and the core
	// rule must each alert exactly once.
	breakRule := func(sw uint32, id uint64) {
		t.Helper()
		var reply monocle.UpdateReply
		op := monocle.RuleOp{Op: "delete", ID: id, Dataplane: "actual"}
		if status, body := c.post(fmt.Sprintf("/switches/%d/rules", sw), op, &reply); status != http.StatusOK {
			t.Fatalf("behind-the-back delete of rule %d on switch %d: status %d body %s", id, sw, status, body)
		}
	}
	breakRule(1, 2) // edge, 192.168/24: outside the alert filter
	breakRule(2, 1) // edge, 10/8: alerts
	breakRule(3, 1) // core: alerts on the round its sample comes up

	wantAlerts := map[string]bool{
		"rule_failing(switch 2, rule 1)": true,
		"rule_failing(switch 3, rule 1)": true,
	}
	deadline := time.Now().Add(30 * time.Second)
	var got []monocle.Alert
	for time.Now().Before(deadline) {
		got = c.alerts()
		seen := make(map[string]bool, len(got))
		for _, a := range got {
			seen[monocle.AlertKey(a)] = true
		}
		if len(seen) >= len(wantAlerts) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	keys := make(map[string]int)
	for _, a := range got {
		keys[monocle.AlertKey(a)]++
	}
	for k, n := range keys {
		if !wantAlerts[k] {
			t.Fatalf("unexpected alert %s (the filtered edge rule must stay silent): all %v", k, keys)
		}
		if n != 1 {
			t.Fatalf("alert %s fired %d times, want once: %v", k, n, keys)
		}
	}
	for k := range wantAlerts {
		if keys[k] != 1 {
			t.Fatalf("missing alert %s: got %v", k, keys)
		}
	}

	// An invalid policy is rejected with its source position and the
	// running plan stays untouched: GET /policy still serves the old
	// source and both groups keep sweeping.
	before := groupMetrics(func(map[string]monocle.GroupMetrics) bool { return true })
	status, body = c.put("/policy", "policy broken {\n  every\n}")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("PUT of invalid policy: status %d body %s, want 422", status, body)
	}
	var perr struct {
		Error  string `json:"error"`
		Line   int    `json:"line"`
		Column int    `json:"column"`
	}
	if err := json.Unmarshal([]byte(body), &perr); err != nil {
		t.Fatalf("bad 422 body %q: %v", body, err)
	}
	// "every" on line 2 has no duration; the parser pins the error on the
	// "}" token that surfaced it (line 3, column 1).
	if perr.Error == "" || perr.Line != 3 || perr.Column != 1 {
		t.Fatalf("422 body does not pin the source position: %+v (body %s)", perr, body)
	}
	if status, src := c.get("/policy"); status != http.StatusOK || src != policyE2EText {
		t.Fatalf("rejected PUT disturbed the active policy: status %d source %q", status, src)
	}
	groupMetrics(func(g map[string]monocle.GroupMetrics) bool {
		return g["edge"].Rounds > before["edge"].Rounds && g["core"].Rounds >= before["core"].Rounds
	})
}

// sweepStream runs three rounds over two simulated switches of 150
// Stanford rules each, two of them lost from the data plane, under pol
// (nil: none), and returns every round's LastSweep records and alerts as
// JSON lines.
func sweepStream(t *testing.T, pol *monocle.Policy) []byte {
	t.Helper()
	svc := monocle.NewService(monocle.WithWorkers(2), monocle.WithPolicy(pol))
	defer svc.Close()
	for id := uint32(1); id <= 2; id++ {
		if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: id}); err != nil {
			t.Fatal(err)
		}
		rules := datasetRules(150, int64(id))
		if err := svc.InstallRules(id, rules...); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ApplyRule(id, monocle.RuleOp{Op: "delete", ID: rules[id].ID, Dataplane: "actual"}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for round := 0; round < 3; round++ {
		alerts := svc.SweepRound(context.Background())
		for _, rec := range svc.LastSweep() {
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range alerts {
			if err := enc.Encode(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestPolicyDeterminismAcrossWorkers pins the policy pipeline's
// determinism: with a sampled two-group policy and injected divergences,
// the compiled probe plans and the alert stream are byte-identical at
// solver worker budgets 1, 2, and 8 (run under -race in CI).
func TestPolicyDeterminismAcrossWorkers(t *testing.T) {
	const policyText = `
policy edge {
  select tag "edge"
  debounce 1
  alert only nw_dst in 10.0.0.0/8
}

policy core {
  select tag "core"
  sample 50% seed 3
}
`
	run := func(workers int) []byte {
		pol, err := monocle.ParsePolicy(policyText)
		if err != nil {
			t.Fatal(err)
		}
		svc := monocle.NewService(monocle.WithWorkers(workers), monocle.WithPolicy(pol))
		defer svc.Close()
		for id := uint32(1); id <= 4; id++ {
			tag := "edge"
			if id >= 3 {
				tag = "core"
			}
			if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: id, Tags: []string{tag}}); err != nil {
				t.Fatal(err)
			}
			var rules []*monocle.Rule
			for j := uint64(1); j <= 4; j++ {
				prefix := uint64(10)<<24 | j<<16 | uint64(id)<<8
				if j == 2 {
					prefix = uint64(192)<<24 | uint64(168)<<16 | uint64(id)<<8
				}
				m := monocle.MatchAll().With(monocle.IPDst, monocle.Prefix(monocle.IPDst, prefix, 24))
				rules = append(rules, &monocle.Rule{
					ID: j, Priority: 10 + int(j), Match: m,
					Actions: []monocle.Action{monocle.Output(monocle.PortID(j + 1))},
				})
			}
			if err := svc.InstallRules(id, rules...); err != nil {
				t.Fatal(err)
			}
		}
		// One loss per class behind the verifier's back, plus a filtered
		// one that must never surface.
		for _, br := range []struct {
			sw uint32
			id uint64
		}{{1, 2}, {2, 1}, {3, 3}} {
			if _, err := svc.ApplyRule(br.sw, monocle.RuleOp{Op: "delete", ID: br.id, Dataplane: "actual"}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		ctx := context.Background()
		for round := 0; round < 12; round++ {
			for _, p := range svc.ProbePlans() {
				if err := enc.Encode(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range svc.SweepRound(ctx) {
				if err := enc.Encode(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}

	budgets := []int{1, 2, 8}
	canonical := run(budgets[0])
	// The baseline must have surfaced the two unfiltered losses and
	// nothing from switch 1 (its loss is outside the edge alert filter).
	failing := 0
	for _, line := range bytes.Split(canonical, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if _, isAlert := probe["type"]; !isAlert {
			continue // a probe-plan line
		}
		var a monocle.Alert
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatalf("bad alert line %q: %v", line, err)
		}
		if a.SwitchID == 1 {
			t.Fatalf("filtered edge loss surfaced an alert: %s", line)
		}
		if a.Type == monocle.AlertRuleFailing {
			failing++
		}
	}
	if failing != 2 {
		t.Fatalf("baseline raised %d rule_failing alerts, want 2 (switch 2 and switch 3):\n%s", failing, canonical)
	}
	for _, w := range budgets[1:] {
		if stream := run(w); !bytes.Equal(stream, canonical) {
			t.Fatalf("workers=%d diverged from workers=%d:\n--- workers=%d ---\n%s--- workers=%d ---\n%s",
				w, budgets[0], budgets[0], canonical, w, stream)
		}
	}

	// One engine: a policy selecting every rule of every switch sweeps
	// exactly what a policy-less service sweeps — the same records and the
	// same alerts, byte for byte.
	selectAll, err := monocle.ParsePolicy("policy all { select all }\n")
	if err != nil {
		t.Fatal(err)
	}
	none := sweepStream(t, nil)
	if !bytes.Contains(none, []byte("rule_failing")) {
		t.Fatalf("the policy-less stream raised no rule_failing alert:\n%s", none)
	}
	if all := sweepStream(t, selectAll); !bytes.Equal(all, none) {
		a, b := bytes.Split(all, []byte("\n")), bytes.Split(none, []byte("\n"))
		i := 0
		for i < len(a) && i < len(b) && bytes.Equal(a[i], b[i]) {
			i++
		}
		t.Fatalf("policy all { select all } diverged from no policy at line %d (%d vs %d lines)", i, len(a), len(b))
	}
}

// blockingBackend is a Backend whose Observe parks until its context is
// cancelled: with it registered, Run is guaranteed to be inside a sweep
// when the test cancels, so a hang here means the sweep context was not
// threaded through.
type blockingBackend struct {
	id      uint32
	entered chan struct{}
	enter   sync.Once
	closed  sync.Once
	events  chan monocle.BackendEvent
}

func (b *blockingBackend) SwitchID() uint32                    { return b.id }
func (b *blockingBackend) Connect(context.Context) error       { return nil }
func (b *blockingBackend) Apply(monocle.BackendOp) error       { return nil }
func (b *blockingBackend) Epoch() uint64                       { return 0 }
func (b *blockingBackend) Events() <-chan monocle.BackendEvent { return b.events }
func (b *blockingBackend) EventDrops() uint64                  { return 0 }
func (b *blockingBackend) Close() error {
	b.closed.Do(func() { close(b.events) })
	return nil
}
func (b *blockingBackend) Observe(ctx context.Context, _ *monocle.Probe, _ monocle.Expectation) (monocle.Verdict, error) {
	b.enter.Do(func() { close(b.entered) })
	<-ctx.Done()
	return monocle.VerdictUnexpected, ctx.Err()
}
func (b *blockingBackend) ObserveBatch(ctx context.Context, probes []*monocle.Probe, expects []monocle.Expectation) ([]monocle.Verdict, []error) {
	verdicts := make([]monocle.Verdict, len(probes))
	errs := make([]error, len(probes))
	for i, p := range probes {
		verdicts[i], errs[i] = b.Observe(ctx, p, expects[i])
	}
	return verdicts, errs
}

// TestRunCancellation pins the drain path: cancelling Run's context must
// abort the in-flight sweep round promptly — the round's partial fold is
// discarded (no alerts, round not counted) instead of blocking forever
// on a stuck data plane.
func TestRunCancellation(t *testing.T) {
	svc := monocle.NewService(monocle.WithSteadyInterval(time.Millisecond))
	defer svc.Close()
	be := &blockingBackend{
		id:      7,
		entered: make(chan struct{}),
		events:  make(chan monocle.BackendEvent),
	}
	if _, err := svc.Fleet().AddBackend(be); err != nil {
		t.Fatal(err)
	}
	rule := &monocle.Rule{ID: 1, Priority: 10, Match: monocle.MatchAll(),
		Actions: []monocle.Action{monocle.Output(1)}}
	if err := svc.InstallRules(7, rule); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()

	select {
	case <-be.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no sweep reached the backend")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after cancellation: the sweep is not running under Run's context")
	}
	if as := svc.Alerts(); len(as) != 0 {
		t.Fatalf("aborted round raised alerts: %+v", as)
	}
	if m := svc.Metrics(); m.Rounds != 0 {
		t.Fatalf("aborted round was counted: %d rounds", m.Rounds)
	}
}
