package monocle_test

// End-to-end monocled service test: an in-process service fronting an
// 8-switch simulated fleet is driven through its full HTTP lifecycle —
// switches added, rules installed over the dynamic-update confirmation
// path, one rule mutated behind the verifier's back — and must surface
// the injected hardware/controller divergence as exactly one debounced
// alert on GET /alerts, then shut down cleanly (run under -race in CI).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"monocle"
)

// svcClient wraps the httptest server with JSON helpers.
type svcClient struct {
	t    *testing.T
	base string
}

func (c *svcClient) post(path string, body any, out any) (int, string) {
	c.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			c.t.Fatalf("POST %s: decoding %q: %v", path, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func (c *svcClient) get(path string) (int, string) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// alerts fetches and decodes the GET /alerts JSON lines.
func (c *svcClient) alerts() []monocle.Alert {
	c.t.Helper()
	status, body := c.get("/alerts")
	if status != http.StatusOK {
		c.t.Fatalf("GET /alerts: status %d", status)
	}
	var out []monocle.Alert
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var a monocle.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			c.t.Fatalf("bad alert line %q: %v", sc.Text(), err)
		}
		out = append(out, a)
	}
	return out
}

func TestServiceEndToEndHTTP(t *testing.T) {
	const nSwitches = 8
	svc := monocle.NewService(
		monocle.WithWorkers(2),
		monocle.WithSteadyInterval(3*time.Millisecond),
		monocle.WithDebounce(2),
	)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &svcClient{t: t, base: ts.URL}

	// Add the fleet. Duplicate ids must conflict.
	for id := 1; id <= nSwitches; id++ {
		if status, body := c.post("/switches", monocle.SwitchSpec{ID: uint32(id)}, nil); status != http.StatusCreated {
			t.Fatalf("adding switch %d: status %d body %s", id, status, body)
		}
	}
	if status, _ := c.post("/switches", monocle.SwitchSpec{ID: 1}, nil); status != http.StatusConflict {
		t.Fatalf("duplicate switch add: status %d, want 409", status)
	}

	// Install rules through the dynamic-update path: a low-priority
	// fallback plus four ACL rules per switch. Additions must come back
	// confirmed — expected table and data plane move together.
	for id := 1; id <= nSwitches; id++ {
		rules := []monocle.RuleSpec{
			{ID: 99, Priority: 1, Match: map[string]string{"dl_type": "0x800"},
				Actions: []monocle.ActionSpec{{Output: 9}}},
		}
		for j := 0; j < 4; j++ {
			rules = append(rules, monocle.RuleSpec{
				ID: uint64(j + 1), Priority: 10 + j,
				Match: map[string]string{
					"dl_type": "0x800",
					"nw_dst":  fmt.Sprintf("10.0.%d.0/24", j),
				},
				Actions: []monocle.ActionSpec{{Output: uint16(j + 2)}},
			})
		}
		for _, rs := range rules {
			var reply monocle.UpdateReply
			status, body := c.post(fmt.Sprintf("/switches/%d/rules", id),
				monocle.RuleOp{Op: "add", Rule: &rs}, &reply)
			if status != http.StatusOK {
				t.Fatalf("add rule %d on switch %d: status %d body %s", rs.ID, id, status, body)
			}
			if reply.Verdict != "confirmed" && reply.Verdict != "unmonitorable" {
				t.Fatalf("add rule %d on switch %d: verdict %q, want confirmed", rs.ID, id, reply.Verdict)
			}
		}
	}

	// Start the sweep loop.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()

	// Baseline: let a few rounds pass; a healthy fleet raises nothing.
	waitRounds := func(target uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var m monocle.ServiceMetrics
			status, body := c.get("/metrics")
			if status != http.StatusOK {
				t.Fatalf("GET /metrics: status %d", status)
			}
			if err := json.Unmarshal([]byte(body), &m); err != nil {
				t.Fatalf("bad metrics %q: %v", body, err)
			}
			if m.Rounds >= target {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("service never reached %d sweep rounds", target)
	}
	waitRounds(3)
	if as := c.alerts(); len(as) != 0 {
		t.Fatalf("healthy fleet raised alerts: %+v", as)
	}

	// The divergence: switch 5's hardware silently rewrites rule 2 to a
	// wrong port — the controller's view is untouched.
	var reply monocle.UpdateReply
	status, body := c.post("/switches/5/rules", monocle.RuleOp{
		Op: "modify", ID: 2, Dataplane: "actual",
		Actions: []monocle.ActionSpec{{Output: 14}},
	}, &reply)
	if status != http.StatusOK {
		t.Fatalf("behind-the-back modify: status %d body %s", status, body)
	}
	if reply.Verdict != "none" {
		t.Fatalf("data-plane-only mutation produced a confirmation verdict %q", reply.Verdict)
	}

	// Exactly one debounced alert must surface, and stay exactly one.
	deadline := time.Now().Add(30 * time.Second)
	var got []monocle.Alert
	for time.Now().Before(deadline) {
		if got = c.alerts(); len(got) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one alert, got %+v", got)
	}
	a := got[0]
	if a.Type != monocle.AlertRuleFailing || a.SwitchID != 5 || a.Rule != 2 {
		t.Fatalf("alert identifies the wrong divergence: %+v", a)
	}
	if a.Streak < 2 {
		t.Fatalf("alert fired before the debounce threshold: %+v", a)
	}
	if a.Record == nil || a.Record.Switch != 5 || a.Record.Rule != 2 {
		t.Fatalf("alert record missing or wrong: %+v", a.Record)
	}

	// Debounced means debounced: many more rounds, still exactly one.
	var m monocle.ServiceMetrics
	_, mbody := c.get("/metrics")
	if err := json.Unmarshal([]byte(mbody), &m); err != nil {
		t.Fatal(err)
	}
	waitRounds(m.Rounds + 5)
	if as := c.alerts(); len(as) != 1 {
		t.Fatalf("alert count changed after more rounds: %+v", as)
	}

	// The sweep log streams ResultRecords for the whole fleet.
	status, body = c.get("/sweeps")
	if status != http.StatusOK {
		t.Fatalf("GET /sweeps: status %d", status)
	}
	lines := 0
	perSwitch := map[uint32]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec monocle.ResultRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		perSwitch[rec.Switch] = true
		lines++
	}
	if lines != nSwitches*5 {
		t.Fatalf("sweep log has %d lines, want %d", lines, nSwitches*5)
	}
	if len(perSwitch) != nSwitches {
		t.Fatalf("sweep log covers %d switches, want %d", len(perSwitch), nSwitches)
	}

	// Health before and after the drain.
	status, body = c.get("/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ok":true`) || !strings.Contains(body, `"draining":false`) {
		t.Fatalf("healthz before drain: %d %s", status, body)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("service did not drain after cancellation")
	}
	status, body = c.get("/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("healthz after drain: %d %s", status, body)
	}
}

// TestServiceSweepEndpointAndErrors covers the externally-paced POST
// /sweep path and the HTTP error mapping.
func TestServiceSweepEndpointAndErrors(t *testing.T) {
	svc := monocle.NewService(monocle.WithWorkers(1))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &svcClient{t: t, base: ts.URL}

	if status, _ := c.post("/switches", monocle.SwitchSpec{ID: 0}, nil); status != http.StatusBadRequest {
		t.Fatalf("zero switch id: status %d, want 400", status)
	}
	if status, _ := c.post("/switches/7/rules", monocle.RuleOp{Op: "delete", ID: 1}, nil); status != http.StatusNotFound {
		t.Fatalf("rule op on unknown switch: status %d, want 404", status)
	}
	if status, _ := c.post("/switches", monocle.SwitchSpec{ID: 7, Miss: "sideways"}, nil); status != http.StatusBadRequest {
		t.Fatalf("bad miss behaviour: status %d, want 400", status)
	}
	if status, body := c.post("/switches", monocle.SwitchSpec{ID: 7}, nil); status != http.StatusCreated {
		t.Fatalf("adding switch: %d %s", status, body)
	}
	if status, _ := c.post("/switches/7/rules", monocle.RuleOp{Op: "delete", ID: 1}, nil); status != http.StatusNotFound {
		t.Fatalf("deleting unknown rule: status %d, want 404", status)
	}
	if status, _ := c.post("/switches/7/rules", monocle.RuleOp{Op: "frobnicate"}, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", status)
	}
	rs := monocle.RuleSpec{ID: 1, Priority: 5,
		Match:   map[string]string{"dl_type": "0x800", "nw_src": "192.168.0.0/16"},
		Actions: []monocle.ActionSpec{{Output: 3}}}
	if status, body := c.post("/switches/7/rules", monocle.RuleOp{Op: "add", Rule: &rs}, nil); status != http.StatusOK {
		t.Fatalf("add: %d %s", status, body)
	}
	if status, _ := c.post("/switches/7/rules", monocle.RuleOp{Op: "add", Rule: &rs}, nil); status != http.StatusConflict {
		t.Fatalf("duplicate rule id: status %d, want 409", status)
	}

	// One externally-paced round: no Run loop involved.
	var round struct {
		Round  uint64          `json:"round"`
		Rules  int             `json:"rules"`
		Alerts []monocle.Alert `json:"alerts"`
	}
	if status, body := c.post("/sweep", struct{}{}, &round); status != http.StatusOK {
		t.Fatalf("POST /sweep: %d %s", status, body)
	}
	if round.Round != 1 || round.Rules != 1 || len(round.Alerts) != 0 {
		t.Fatalf("unexpected round summary: %+v", round)
	}

	// A rule deleted from hardware only, swept twice (debounce default
	// 1): exactly one failing alert through the manual path too.
	if status, body := c.post("/switches/7/rules",
		monocle.RuleOp{Op: "delete", ID: 1, Dataplane: "actual"}, nil); status != http.StatusOK {
		t.Fatalf("behind-the-back delete: %d %s", status, body)
	}
	if status, body := c.post("/sweep", struct{}{}, &round); status != http.StatusOK {
		t.Fatalf("POST /sweep: %d %s", status, body)
	}
	if len(round.Alerts) != 1 || round.Alerts[0].Type != monocle.AlertRuleFailing {
		t.Fatalf("manual sweep alerts: %+v", round.Alerts)
	}

	// The probe tag rides in dl_vlan, which carries VIDs 1-4094 only: a
	// switch whose resolved tag is wider is refused, and an explicit
	// tag makes any switch id usable.
	for _, id := range []uint32{4095, 5000} {
		if status, body := c.post("/switches", monocle.SwitchSpec{ID: id}, nil); status != http.StatusBadRequest {
			t.Fatalf("switch %d tagged with its id: status %d %s, want 400", id, status, body)
		}
	}
	if status, body := c.post("/switches", monocle.SwitchSpec{ID: 5000, Tag: 12}, nil); status != http.StatusCreated {
		t.Fatalf("switch 5000 with tag 12: %d %s", status, body)
	}
	tagged := monocle.RuleSpec{ID: 1, Priority: 5,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.9.0.0/16"},
		Actions: []monocle.ActionSpec{{Output: 2}}}
	var reply monocle.UpdateReply
	if status, body := c.post("/switches/5000/rules", monocle.RuleOp{Op: "add", Rule: &tagged}, &reply); status != http.StatusOK || reply.Verdict != "confirmed" {
		t.Fatalf("add on switch 5000 with tag 12: %d %s, want confirmed", status, body)
	}
}

// TestRuleOpObservesUnderRequestContext: an HTTP rule op's confirmation
// observation runs under the request context. On a data plane that never
// settles, a request that goes away must end the handler with the
// mutation committed and the verdict "unobserved" instead of holding it
// forever.
func TestRuleOpObservesUnderRequestContext(t *testing.T) {
	svc := monocle.NewService()
	defer svc.Close()
	be := &blockingBackend{id: 7, entered: make(chan struct{}), events: make(chan monocle.BackendEvent)}
	v, err := svc.Fleet().AddBackend(be)
	if err != nil {
		t.Fatal(err)
	}

	body := `{"op":"add","rule":{"id":1,"priority":10,"match":{"dl_type":"0x800","nw_dst":"10.0.0.0/24"},"actions":[{"output":2}]}}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/switches/7/rules", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-be.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the rule op never reached Observe")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked after its request context was cancelled")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var reply monocle.UpdateReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Verdict != "unobserved" {
		t.Fatalf("verdict %q, want unobserved", reply.Verdict)
	}
	if _, ok := v.Rule(1); !ok {
		t.Fatal("the rule op's mutation was not committed")
	}
}

// embeddingBackend is a decorator that embeds its driver, the way
// timing and logging wrappers do.
type embeddingBackend struct{ monocle.Backend }

// TestEventDropsThroughEmbeddingWrapper: a wrapper that embeds Backend
// still reports its driver's event drops in Service.Metrics.
func TestEventDropsThroughEmbeddingWrapper(t *testing.T) {
	svc := monocle.NewService()
	defer svc.Close()
	sim := monocle.NewSimBackend(3)
	// Nothing drains a driver registered on the Fleet directly, so
	// connects past the event buffer's capacity overflow it.
	for i := 0; i < 100; i++ {
		if err := sim.Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	drops := sim.EventDrops()
	if drops == 0 {
		t.Fatal("no events dropped: the setup did not overflow the event buffer")
	}
	if _, err := svc.Fleet().AddBackend(embeddingBackend{sim}); err != nil {
		t.Fatal(err)
	}
	for _, sm := range svc.Metrics().Switches {
		if sm.Switch == 3 {
			if sm.EventsDropped != drops {
				t.Fatalf("events_dropped %d, want the driver's %d", sm.EventsDropped, drops)
			}
			return
		}
	}
	t.Fatal("switch 3 missing from metrics")
}
