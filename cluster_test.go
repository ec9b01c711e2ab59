package monocle_test

// Cluster coordinator tests: the sharded fleet behind one aggregating
// control plane must be indistinguishable — byte for byte — from a single
// monocled, regardless of how many replicas the fleet is cut into or how
// many sweep workers each replica runs. The kill/restart e2e additionally
// pins the failure story: a dead replica degrades only its own shard, and
// a restart from the same state directory yields zero false recoveries
// and an aggregated alert stream identical to the run where nothing died.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"monocle"
)

// clusterDriver drives the scripted deployment against one base URL — a
// coordinator or a bare monocled; the script cannot tell the difference.
type clusterDriver struct {
	t    *testing.T
	base string
}

func (d *clusterDriver) req(method, path string, body []byte) ([]byte, int) {
	d.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		d.t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

func (d *clusterDriver) mustJSON(method, path string, v any, wantStatus int) []byte {
	d.t.Helper()
	var body []byte
	if v != nil {
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			d.t.Fatal(err)
		}
	}
	resp, status := d.req(method, path, body)
	if status != wantStatus {
		d.t.Fatalf("%s %s: status %d (want %d): %s", method, path, status, wantStatus, resp)
	}
	return resp
}

func (d *clusterDriver) addSwitch(id uint32) {
	d.mustJSON(http.MethodPost, "/switches", monocle.SwitchSpec{ID: id}, http.StatusCreated)
}

func (d *clusterDriver) ruleOp(sw uint32, op monocle.RuleOp) {
	d.mustJSON(http.MethodPost, fmt.Sprintf("/switches/%d/rules", sw), op, http.StatusOK)
}

func (d *clusterDriver) sweep() (alerts []monocle.Alert) {
	d.t.Helper()
	resp := d.mustJSON(http.MethodPost, "/sweep", nil, http.StatusOK)
	var out struct {
		Alerts []monocle.Alert `json:"alerts"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		d.t.Fatal(err)
	}
	return out.Alerts
}

// clusterStreams captures the three aggregated read surfaces the
// determinism differential compares byte for byte.
type clusterStreams struct {
	alerts   []byte
	sweeps   []byte
	switches []byte
}

func (d *clusterDriver) streams() clusterStreams {
	d.t.Helper()
	alerts, _ := d.req(http.MethodGet, "/alerts", nil)
	sweeps, _ := d.req(http.MethodGet, "/sweeps", nil)
	switches, _ := d.req(http.MethodGet, "/switches", nil)
	return clusterStreams{alerts: alerts, sweeps: sweeps, switches: switches}
}

func testRule(sw uint32, j int) monocle.RuleSpec {
	return monocle.RuleSpec{ID: uint64(7 + j), Priority: 10 + j,
		Match:   map[string]string{"dl_type": "0x800", "nw_src": fmt.Sprintf("10.%d.%d.1", sw, j)},
		Actions: []monocle.ActionSpec{{Output: 9}}}
}

// runClusterScript drives the canonical deployment: 6 sim switches × 2
// rules, a healthy sweep, two injected data-plane faults, the failing
// sweep, a quiet sweep, the heal, and the recovery sweep.
func runClusterScript(t *testing.T, d *clusterDriver) clusterStreams {
	t.Helper()
	for id := uint32(1); id <= 6; id++ {
		d.addSwitch(id)
		for j := 0; j < 2; j++ {
			rs := testRule(id, j)
			d.ruleOp(id, monocle.RuleOp{Op: "add", Rule: &rs})
		}
	}
	if alerts := d.sweep(); len(alerts) != 0 {
		t.Fatalf("healthy sweep alerted: %+v", alerts)
	}
	// Silent hardware-side rule loss on two switches (which land on
	// different replicas for most shardings).
	d.ruleOp(2, monocle.RuleOp{Op: "delete", ID: 7, Dataplane: "actual"})
	d.ruleOp(5, monocle.RuleOp{Op: "delete", ID: 8, Dataplane: "actual"})
	if alerts := d.sweep(); len(alerts) != 2 {
		t.Fatalf("want 2 rule_failing alerts, got %+v", alerts)
	}
	if alerts := d.sweep(); len(alerts) != 0 {
		t.Fatalf("already-alerted fault re-fired: %+v", alerts)
	}
	r27, r58 := testRule(2, 0), testRule(5, 1)
	d.ruleOp(2, monocle.RuleOp{Op: "add", Rule: &r27, Dataplane: "actual"})
	d.ruleOp(5, monocle.RuleOp{Op: "add", Rule: &r58, Dataplane: "actual"})
	if alerts := d.sweep(); len(alerts) != 2 {
		t.Fatalf("want 2 rule_recovered alerts, got %+v", alerts)
	}
	return d.streams()
}

// startCluster boots n sim-backed replicas behind a coordinator and
// returns the coordinator's base URL.
func startCluster(t *testing.T, n, workers int) string {
	t.Helper()
	specs := make([]monocle.ReplicaSpec, n)
	for i := 0; i < n; i++ {
		svc := monocle.NewService(monocle.WithWorkers(workers), monocle.WithDebounce(1))
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		specs[i] = monocle.ReplicaSpec{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL}
	}
	coord, err := monocle.NewCoordinator(monocle.ClusterConfig{Replicas: specs})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { cts.Close(); coord.Close() })
	return cts.URL
}

// TestClusterAggregationDifferential is the determinism pin: the
// aggregated /alerts, /sweeps and /switches streams must be byte-identical
// across replica counts 1/2/4 and worker budgets 1/2/8 — and identical to
// a standalone monocled driven through the very same script.
func TestClusterAggregationDifferential(t *testing.T) {
	var want clusterStreams
	first := ""
	check := func(name string, got clusterStreams) {
		t.Helper()
		if first == "" {
			want, first = got, name
			return
		}
		if !bytes.Equal(got.alerts, want.alerts) {
			t.Errorf("%s /alerts diverges from %s:\n got %s\nwant %s", name, first, got.alerts, want.alerts)
		}
		if !bytes.Equal(got.sweeps, want.sweeps) {
			t.Errorf("%s /sweeps diverges from %s:\n got %s\nwant %s", name, first, got.sweeps, want.sweeps)
		}
		if !bytes.Equal(got.switches, want.switches) {
			t.Errorf("%s /switches diverges from %s:\n got %s\nwant %s", name, first, got.switches, want.switches)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		// Standalone monocled: the reference the cluster must reproduce.
		svc := monocle.NewService(monocle.WithWorkers(workers), monocle.WithDebounce(1))
		ts := httptest.NewServer(svc.Handler())
		check(fmt.Sprintf("standalone/workers=%d", workers),
			runClusterScript(t, &clusterDriver{t: t, base: ts.URL}))
		ts.Close()
		svc.Close()
		for _, replicas := range []int{1, 2, 4} {
			url := startCluster(t, replicas, workers)
			check(fmt.Sprintf("replicas=%d/workers=%d", replicas, workers),
				runClusterScript(t, &clusterDriver{t: t, base: url}))
		}
	}
	if len(want.alerts) == 0 {
		t.Fatal("differential compared empty alert streams")
	}
	// The aggregated stream's seq tags are the merged global order 1..N.
	lines := bytes.Split(bytes.TrimSpace(want.alerts), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("want 4 alerts in the stream, got %d: %s", len(lines), want.alerts)
	}
	for i, line := range lines {
		var a monocle.Alert
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatal(err)
		}
		if a.Seq != uint64(i+1) {
			t.Fatalf("alert %d has seq %d, want %d: %s", i, a.Seq, i+1, line)
		}
	}
}

// TestClusterShardMap pins the shard surface: every registered switch is
// owned by exactly one live replica, the map agrees with the
// coordinator's routing, and single-replica clusters own everything.
func TestClusterShardMap(t *testing.T) {
	url := startCluster(t, 3, 1)
	d := &clusterDriver{t: t, base: url}
	for id := uint32(1); id <= 12; id++ {
		d.addSwitch(id)
	}
	resp := d.mustJSON(http.MethodGet, "/shards", nil, http.StatusOK)
	var m monocle.ShardMap
	if err := json.Unmarshal(resp, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Replicas) != 3 || len(m.Switches) != 12 || len(m.Degraded) != 0 {
		t.Fatalf("bad shard map: %s", resp)
	}
	owned := map[string]int{}
	for id, owner := range m.Switches {
		if got := m.Owner(id); got != owner {
			t.Fatalf("switch %d: map says %q, rendezvous says %q", id, owner, got)
		}
		owned[owner]++
	}
	// Each switch reachable through the coordinator exactly where the map
	// says: a rule op on every switch must route without error.
	for id := uint32(1); id <= 12; id++ {
		rs := testRule(id, 0)
		d.ruleOp(id, monocle.RuleOp{Op: "add", Rule: &rs})
	}
}

// TestClusterMetricsFederation checks the rollups add up and the
// Prometheus rendering carries replica labels.
func TestClusterMetricsFederation(t *testing.T) {
	url := startCluster(t, 2, 1)
	d := &clusterDriver{t: t, base: url}
	for id := uint32(1); id <= 4; id++ {
		d.addSwitch(id)
		rs := testRule(id, 0)
		d.ruleOp(id, monocle.RuleOp{Op: "add", Rule: &rs})
	}
	d.sweep()
	resp := d.mustJSON(http.MethodGet, "/metrics", nil, http.StatusOK)
	var m monocle.ClusterMetrics
	if err := json.Unmarshal(resp, &m); err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 1 || m.Switches != 4 || len(m.Replicas) != 2 {
		t.Fatalf("bad cluster metrics: %s", resp)
	}
	if m.RulesSwept != 4 {
		t.Fatalf("rules_swept rollup = %d, want 4", m.RulesSwept)
	}
	req, _ := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(promResp.Body)
	prom := buf.String()
	for _, want := range []string{
		"monocle_cluster_sweep_rounds_total 1",
		"monocle_cluster_switches 4",
		"monocle_cluster_policy_errors_total 0",
		`monocle_replica_up{replica="shard-0"} 1`,
		`monocle_replica_up{replica="shard-1"} 1`,
		`monocle_sweep_rounds_total{replica="shard-0"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

// TestClusterPolicyFanout: a PUT /policy through the coordinator lands on
// every replica and the aggregated reply unions the group assignments.
func TestClusterPolicyFanout(t *testing.T) {
	url := startCluster(t, 2, 1)
	d := &clusterDriver{t: t, base: url}
	for id := uint32(1); id <= 4; id++ {
		d.addSwitch(id)
	}
	policy := "policy all { select all }\n"
	resp, status := d.req(http.MethodPut, "/policy", []byte(policy))
	if status != http.StatusOK {
		t.Fatalf("PUT /policy: %d: %s", status, resp)
	}
	var put struct {
		Groups      []string            `json:"groups"`
		Assignments map[string][]uint32 `json:"assignments"`
	}
	if err := json.Unmarshal(resp, &put); err != nil {
		t.Fatal(err)
	}
	if len(put.Assignments["all"]) != 4 {
		t.Fatalf("assignment union wrong: %s", resp)
	}
	body, status := d.req(http.MethodGet, "/policy", nil)
	if status != http.StatusOK || !bytes.Equal(body, []byte(policy)) {
		t.Fatalf("GET /policy: %d: %q", status, body)
	}
	// A policy that does not parse must be rejected before any replica
	// sees it (shards must never diverge on the active policy).
	resp, status = d.req(http.MethodPut, "/policy", []byte("policy { nope"))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad policy accepted: %d: %s", status, resp)
	}
	if body, status := d.req(http.MethodGet, "/policy", nil); status != http.StatusOK || !bytes.Equal(body, []byte(policy)) {
		t.Fatalf("rejected policy clobbered the active one: %d: %q", status, body)
	}
}

// liveRule is a rule a live TCP sim switch can actually prove: unlike
// testRule it outputs to a real port, so the probe has a catcher.
func liveRule(sw uint32) monocle.RuleSpec {
	return monocle.RuleSpec{ID: 7, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": fmt.Sprintf("10.0.%d.0/24", sw)},
		Actions: []monocle.ActionSpec{{Output: 2}}}
}

// replicaProc is one live replica in the kill/restart e2e: a Service on a
// real TCP HTTP listener whose address survives a restart.
type replicaProc struct {
	svc  *monocle.Service
	srv  *http.Server
	addr string
}

func startReplicaProc(t *testing.T, svc *monocle.Service, addr string) *replicaProc {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("replica listen %s: %v", addr, err)
	}
	p := &replicaProc{svc: svc, addr: ln.Addr().String()}
	p.srv = &http.Server{Handler: svc.Handler()}
	go p.srv.Serve(ln)
	return p
}

// kill simulates the process dying: the HTTP listener and the service
// (with its backend connections) go away; the state directory survives.
func (p *replicaProc) kill() {
	p.srv.Close()
	p.svc.Close()
}

// clusterE2EStreams runs the live-TCP kill/restart script and returns the
// aggregated alert stream. With kill=true the replica owning the broken
// switch dies right after the failing alert and is restarted from its
// state directory; with kill=false it just keeps serving. Both runs
// execute the identical sweep script, so the streams must match.
func clusterE2EStreams(t *testing.T, kill bool) []byte {
	t.Helper()
	const victim = uint32(2)

	// Three live TCP switches, self-looped ports.
	servers := map[uint32]*monocle.SwitchServer{}
	for id := uint32(1); id <= 3; id++ {
		srv, err := monocle.StartSwitchServer(monocle.SwitchServerConfig{
			ID: id, Ports: []monocle.PortID{1, 2, 3, 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[id] = srv
	}

	// Three replicas with per-shard state dirs on fixed TCP addresses.
	baseDir := t.TempDir()
	newReplica := func(name string) *monocle.Service {
		return monocle.NewService(
			monocle.WithWorkers(1),
			monocle.WithDebounce(1),
			monocle.WithDetectionTimeout(500*time.Millisecond),
			monocle.WithStateDir(baseDir+"/"+name),
		)
	}
	procs := map[string]*replicaProc{}
	var specs []monocle.ReplicaSpec
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("shard-%d", i)
		p := startReplicaProc(t, newReplica(name), "127.0.0.1:0")
		procs[name] = p
		specs = append(specs, monocle.ReplicaSpec{Name: name, URL: "http://" + p.addr})
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.kill()
		}
	})
	coord, err := monocle.NewCoordinator(monocle.ClusterConfig{Replicas: specs})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { cts.Close(); coord.Close() })
	d := &clusterDriver{t: t, base: cts.URL}

	// Register the live switches through the coordinator and install one
	// rule each, confirmed over the wire.
	for id := uint32(1); id <= 3; id++ {
		d.mustJSON(http.MethodPost, "/switches", monocle.SwitchSpec{
			ID: id, Backend: "proxy", Address: servers[id].Addr(),
			Ports: []uint16{1, 2, 3, 4},
			Peers: map[uint16]uint32{1: id, 2: id, 3: id, 4: id},
		}, http.StatusCreated)
		rs := liveRule(id)
		d.ruleOp(id, monocle.RuleOp{Op: "add", Rule: &rs})
	}
	if alerts := d.sweep(); len(alerts) != 0 {
		t.Fatalf("healthy sweep alerted: %+v", alerts)
	}

	// Silent hardware fault on the victim switch.
	servers[victim].FailRule(7)
	alerts := d.sweep()
	if len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleFailing || alerts[0].SwitchID != victim {
		t.Fatalf("want one rule_failing on switch %d, got %+v", victim, alerts)
	}

	victimShard := coord.Owner(victim).Name
	if kill {
		// The owning replica dies mid-serve. Its shard — and only its
		// shard — degrades; the fleet survives.
		procs[victimShard].kill()
		var h monocle.ClusterHealth
		if err := json.Unmarshal(d.mustJSON(http.MethodGet, "/healthz", nil, http.StatusOK), &h); err != nil {
			t.Fatal(err)
		}
		if h.OK || len(h.Degraded) != 1 || h.Degraded[0] != victimShard {
			t.Fatalf("healthz after kill: %+v", h)
		}
		// Ops on the dead shard fail loudly with the shard name...
		rs := liveRule(victim)
		body, _ := json.Marshal(monocle.RuleOp{Op: "add", Rule: &rs})
		resp, status := d.req(http.MethodPost, fmt.Sprintf("/switches/%d/rules", victim), body)
		if status != http.StatusServiceUnavailable || !strings.Contains(string(resp), victimShard) {
			t.Fatalf("op on dead shard: %d: %s", status, resp)
		}
		// ...while the aggregated read surface stays up, marked degraded.
		req, _ := http.NewRequest(http.MethodGet, cts.URL+"/alerts", nil)
		aresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		aresp.Body.Close()
		if got := aresp.Header.Get("X-Monocle-Degraded"); got != victimShard {
			t.Fatalf("X-Monocle-Degraded = %q, want %q", got, victimShard)
		}

		// Restart: same name, same state directory, same address. Resume
		// replays the WAL and re-dials the live switch.
		svc := newReplica(victimShard)
		if err := svc.Resume(context.Background()); err != nil {
			t.Fatalf("resume: %v", err)
		}
		procs[victimShard] = startReplicaProc(t, svc, procs[victimShard].addr)
		var h2 monocle.ClusterHealth
		if err := json.Unmarshal(d.mustJSON(http.MethodGet, "/healthz", nil, http.StatusOK), &h2); err != nil {
			t.Fatal(err)
		}
		if !h2.OK {
			t.Fatalf("healthz after restart: %+v", h2)
		}
	}

	// The fault is still in the hardware and was already alerted: the
	// next sweep must stay quiet — in particular the restarted replica
	// must not claim rule_recovered.
	if alerts := d.sweep(); len(alerts) != 0 {
		t.Fatalf("false alert after %v: %+v", map[bool]string{true: "restart", false: "steady state"}[kill], alerts)
	}

	// Heal the hardware for real; exactly the injected failure recovers.
	servers[victim].HealRule(7)
	rs := liveRule(victim)
	d.ruleOp(victim, monocle.RuleOp{Op: "add", Rule: &rs, Dataplane: "actual"})
	alerts = d.sweep()
	if len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleRecovered || alerts[0].SwitchID != victim {
		t.Fatalf("want exactly one rule_recovered on switch %d, got %+v", victim, alerts)
	}

	stream, _ := d.req(http.MethodGet, "/alerts", nil)
	return stream
}

// TestClusterKillRestartE2E is the CI cluster e2e: a 3-replica cluster
// over live TCP switches survives a replica kill + restart with an
// aggregated alert stream byte-identical to the run where nothing died.
func TestClusterKillRestartE2E(t *testing.T) {
	control := clusterE2EStreams(t, false)
	killed := clusterE2EStreams(t, true)
	if !bytes.Equal(control, killed) {
		t.Fatalf("kill/restart changed the aggregated alert stream:\n no-kill %s\n    kill %s", control, killed)
	}
	if len(bytes.TrimSpace(control)) == 0 {
		t.Fatal("e2e produced an empty alert stream")
	}
}

// TestServiceCloseConcurrent pins Service.Close as idempotent and safe
// concurrently with itself, with Run's drain, and with in-flight sweeps —
// the coordinator teardown path hits all three at once.
func TestServiceCloseConcurrent(t *testing.T) {
	svc := monocle.NewService(monocle.WithWorkers(2), monocle.WithSteadyInterval(time.Millisecond))
	if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: 1}); err != nil {
		t.Fatal(err)
	}
	rs := testRule(1, 0)
	if _, err := svc.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- svc.Run(ctx) }()
	time.Sleep(5 * time.Millisecond) // let Run sweep

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = svc.Close()
		}(i)
	}
	cancel()
	wg.Wait()
	if err := <-runDone; err != nil && err != context.Canceled {
		t.Fatalf("Run: %v", err)
	}
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close() not idempotent: call %d returned %v, call 0 returned %v", i, err, errs[0])
		}
	}
	// And once more after everything settled.
	if err := svc.Close(); err != errs[0] {
		t.Fatalf("late Close() returned %v, want %v", err, errs[0])
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /livez is always
// 200, /readyz stays 503 until the first completed round of this process
// life, and flips back to 503 on drain.
func TestReadyzLifecycle(t *testing.T) {
	svc := monocle.NewService(monocle.WithWorkers(1), monocle.WithDebounce(1))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	d := &clusterDriver{t: t, base: ts.URL}

	status := func(path string) int {
		_, code := d.req(http.MethodGet, path, nil)
		return code
	}
	if got := status("/livez"); got != http.StatusOK {
		t.Fatalf("/livez before first round: %d", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before first round: %d, want 503", got)
	}
	if svc.Ready() {
		t.Fatal("Ready() true before first round")
	}
	d.addSwitch(1)
	d.sweep()
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after first round: %d, want 200", got)
	}
	if !svc.Ready() {
		t.Fatal("Ready() false after first round")
	}

	// A cancelled Run marks the service draining: not ready, still live.
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- svc.Run(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	<-runDone
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", got)
	}
	if got := status("/livez"); got != http.StatusOK {
		t.Fatalf("/livez while draining: %d", got)
	}
}

// TestReadyzResumeGate: a restarted service is not ready between process
// start and its first post-Resume round, so a coordinator never routes to
// a replica that has not re-proven its fleet.
func TestReadyzResumeGate(t *testing.T) {
	dir := t.TempDir()
	svc := monocle.NewService(monocle.WithWorkers(1), monocle.WithDebounce(1), monocle.WithStateDir(dir))
	if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: 1}); err != nil {
		t.Fatal(err)
	}
	rs := testRule(1, 0)
	if _, err := svc.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &rs}); err != nil {
		t.Fatal(err)
	}
	svc.SweepRound(context.Background())
	if !svc.Ready() {
		t.Fatal("first life not ready after a round")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := monocle.NewService(monocle.WithWorkers(1), monocle.WithDebounce(1), monocle.WithStateDir(dir))
	defer svc2.Close()
	if svc2.Ready() {
		t.Fatal("restarted service ready before Resume")
	}
	if err := svc2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Resume restores rounds, but readiness needs a round of THIS life.
	if svc2.Ready() {
		t.Fatal("restarted service ready before its first post-Resume round")
	}
	svc2.SweepRound(context.Background())
	if !svc2.Ready() {
		t.Fatal("restarted service not ready after its post-Resume round")
	}
}
