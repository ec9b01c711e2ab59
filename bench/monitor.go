package main

// The monitor process: one Service, one workload, one measured window.
// It prints "ready <json>" after set-up and "result <json>" at the end;
// the driver process turns the result into metrics.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"monocle"
)

// monitorConfig is what the driver passes to a monitor process.
type monitorConfig struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	SetupOnly bool     `json:"setup_only"`
	Dir       string   `json:"dir"`   // run directory (the state dir lives here)
	Spans     string   `json:"spans"` // traced runs: where spans are written at exit
	Rig       rigAddrs `json:"rig"`
}

// Workload parameters. Rates and windows are fixed here, not by flags,
// so every run of a workload measures the same thing.
const (
	churnPerSwitch = 2                      // churn_cpu modifies per switch before each round
	faultRate      = 8.0                    // fault_detect faults per second (open loop)
	faultDrain     = 10 * time.Second       // fault_detect: wait for the last alerts at most this long
	webhookDelay   = 200 * time.Millisecond // fault_detect receiver answers after this
	steadyInterval = time.Second            // fault_detect Service.Run cadence
)

// roundRec is one measured SweepRound.
type roundRec struct {
	Ms    float64 `json:"ms"`
	Rules int     `json:"rules"`
}

// opRec is one measured rule op.
type opRec struct {
	Op         string  `json:"op"`
	Switch     uint32  `json:"switch"`
	Rule       uint64  `json:"rule"`
	Ms         float64 `json:"ms"`
	Status     int     `json:"status"`
	Verdict    string  `json:"verdict"`
	WireUnsafe bool    `json:"wire_unsafe,omitempty"` // probe header does not survive the wire
}

// faultRec is one injected fault.
type faultRec struct {
	Switch   uint32  `json:"switch"`
	Rule     uint64  `json:"rule"`
	LagMs    float64 `json:"lag_ms"`    // injector lateness
	DetectMs float64 `json:"detect_ms"` // due time to alert at the receiver; <0: undetected
}

// alertRec is one alert, with where it was raised.
type alertRec struct {
	Type       string `json:"type"`
	Switch     uint32 `json:"switch"`
	Rule       uint64 `json:"rule"`
	Round      uint64 `json:"round"`
	Setup      bool   `json:"setup,omitempty"` // raised before the measured window
	WireUnsafe bool   `json:"wire_unsafe,omitempty"`
}

// runResult is a monitor process's report.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Monitored   int                `json:"monitored"`
	WindowS     float64            `json:"window_s"`
	Rounds      []roundRec         `json:"rounds,omitempty"`
	Ops         []opRec            `json:"ops,omitempty"`
	Faults      []faultRec         `json:"faults,omitempty"`
	Alerts      []alertRec         `json:"alerts,omitempty"`
	Failing     int                `json:"failing"`             // outstanding rule_failing at the end
	FailingWire int                `json:"failing_wire_unsafe"` // of which the probe cannot survive the wire
	RulesJudged int64              `json:"rules_judged"`
	CPUms       float64            `json:"cpu_ms"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	PeakRSSKB   int64              `json:"peak_rss_kb"`
	GCFrac      float64            `json:"gc_frac"`
	StealFrac   float64            `json:"steal_frac"` // host CPU time stolen from this VM in the window
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// readyInfo is printed once set-up completes.
type readyInfo struct {
	InputS float64 `json:"input_s"` // time spent generating inputs (not set-up)
}

func runMonitor(cfg monitorConfig, out io.Writer) error {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	// Inputs are generated before set-up starts; churn plans, rule ops
	// and fault schedules derive from the seed and these tables.
	sh := shapeOf(cfg.Workload)
	t0 := time.Now()
	tables := make(map[uint32][]*monocle.Rule, sh.switches)
	for id := uint32(1); id <= uint32(sh.switches); id++ {
		tables[id] = table(cfg.Seed, id, sh.rules)
	}
	inputS := time.Since(t0).Seconds()

	w := &monitorRun{cfg: cfg, sh: sh, tables: tables, tr: tr, res: runResult{Workload: cfg.Workload, Seed: cfg.Seed}}
	defer w.close()
	ready := func() {
		b, _ := json.Marshal(readyInfo{InputS: inputS})
		fmt.Fprintf(out, "ready %s\n", b)
	}
	var err error
	switch cfg.Workload {
	case "steady_wire", "churn_cpu":
		err = w.sweeps(ready)
	case "rule_ops":
		err = w.ruleOps(ready)
	case "fault_detect":
		err = w.faults(ready)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil || cfg.SetupOnly {
		return err
	}
	w.res.PeakRSSKB = peakRSSKB()
	if tr != nil {
		w.res.Layers = layerMetrics(w)
		if err := tr.writeFile(cfg.Spans); err != nil {
			return err
		}
	}
	b, err := json.Marshal(w.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "result %s\n", b)
	return err
}

// monitorRun is one workload execution's state.
type monitorRun struct {
	cfg    monitorConfig
	sh     shape
	tables map[uint32][]*monocle.Rule
	tr     *tracer
	net    *network
	res    runResult

	// Window bookkeeping.
	winStart time.Time
	cpu0     float64
	alloc0   uint64
	gc0      [2]float64
	host0    [2]uint64

	// Traced runs only, in tracer time: the measured rounds and the
	// set-up round (cold generation), the window, Service.Run's start
	// and each fault's due time.
	roundSpans     []span
	setupRound     span
	trWin0, trWin1 int64
	runStart       int64
	faultDue       []int64

	alertMu sync.Mutex
	failing map[[2]uint64]bool
}

func (w *monitorRun) close() {
	if w.net != nil {
		w.net.close()
	}
}

func (w *monitorRun) build(opts ...monocle.Option) error {
	n, err := newNetwork(w.sh, w.tables, filepath.Join(w.cfg.Dir, "state"), w.cfg.Rig, w.tr, detectionTimeout, opts...)
	if err != nil {
		return err
	}
	w.net = n
	w.res.Monitored = n.rulesMonitored()
	w.failing = make(map[[2]uint64]bool)
	return nil
}

// startWindow and endWindow bracket the measured window's resource use.
func (w *monitorRun) startWindow() {
	w.winStart = time.Now()
	w.cpu0 = cpuMs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc0 = ms.TotalAlloc
	w.gc0 = gcCPU()
	w.host0 = hostCPU()
	if w.tr != nil {
		w.trWin0 = w.tr.now()
	}
}

func (w *monitorRun) endWindow() {
	if w.tr != nil {
		w.trWin1 = w.tr.now()
	}
	w.res.WindowS = time.Since(w.winStart).Seconds()
	w.res.CPUms = cpuMs() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.res.AllocBytes = ms.TotalAlloc - w.alloc0
	gc := gcCPU()
	if total := gc[1] - w.gc0[1]; total > 0 {
		w.res.GCFrac = (gc[0] - w.gc0[0]) / total
	}
	if h := hostCPU(); h[1] > w.host0[1] {
		w.res.StealFrac = float64(h[0]-w.host0[0]) / float64(h[1]-w.host0[1])
	}
	w.res.Failing = len(w.failing)
	for k := range w.failing {
		if w.wireUnsafeRule(uint32(k[0]), k[1]) {
			w.res.FailingWire++
		}
	}
}

// noteAlerts records alerts and tracks the outstanding rule_failing set.
func (w *monitorRun) noteAlerts(alerts []monocle.Alert, setup bool) {
	w.alertMu.Lock()
	defer w.alertMu.Unlock()
	for _, a := range alerts {
		rec := alertRec{Type: a.Type.String(), Switch: a.SwitchID, Rule: a.Rule, Round: a.Round, Setup: setup}
		key := [2]uint64{uint64(a.SwitchID), a.Rule}
		switch a.Type {
		case monocle.AlertRuleFailing:
			w.failing[key] = true
			if a.Record != nil && a.Record.Probe != nil {
				rec.WireUnsafe = wireUnsafe(a.Record.Probe.Header)
			}
		case monocle.AlertRuleRecovered:
			delete(w.failing, key)
		}
		w.res.Alerts = append(w.res.Alerts, rec)
	}
}

// wireUnsafeRule reports whether the probe in switch id's rule_failing
// alert has a header the wire cannot carry (ROADMAP 1(d)).
func (w *monitorRun) wireUnsafeRule(id uint32, rule uint64) bool {
	for _, a := range w.res.Alerts {
		if a.Switch == id && a.Rule == rule && a.Type == "rule_failing" {
			return a.WireUnsafe
		}
	}
	return false
}

// timedRound runs one SweepRound and records it.
func (w *monitorRun) timedRound(ctx context.Context) (roundRec, span, []monocle.Alert) {
	var start int64
	if w.tr != nil {
		start = w.tr.now()
	}
	t := time.Now()
	alerts := w.net.svc.SweepRound(ctx)
	ms := float64(time.Since(t)) / 1e6
	sp := span{Layer: layerRound}
	if w.tr != nil {
		sp.Start, sp.End = start, w.tr.now()
		w.tr.add(sp)
	}
	return roundRec{Ms: ms, Rules: w.net.svc.Metrics().LastRoundRules}, sp, alerts
}

// sweeps runs steady_wire and churn_cpu: a closed loop of back-to-back
// SweepRound calls; churn_cpu modifies 2 rules per switch before each
// round, outside the timed round.
func (w *monitorRun) sweeps(ready func()) error {
	if err := w.build(); err != nil {
		return err
	}
	ctx := context.Background()
	_, sp, alerts := w.timedRound(ctx)
	w.setupRound = sp
	w.noteAlerts(alerts, true)
	ready()
	if w.cfg.SetupOnly {
		return nil
	}
	w.startWindow()
	window := time.Duration(w.cfg.Seconds * float64(time.Second))
	for n := 1; time.Since(w.winStart) < window; n++ {
		if w.cfg.Workload == "churn_cpu" {
			if err := w.churn(n); err != nil {
				return err
			}
		}
		rec, sp, alerts := w.timedRound(ctx)
		w.res.Rounds = append(w.res.Rounds, rec)
		w.res.RulesJudged += int64(rec.Rules)
		w.roundSpans = append(w.roundSpans, sp)
		w.noteAlerts(alerts, false)
	}
	w.endWindow()
	return nil
}

// churn applies round n's modifies through the Service's rule-op path.
// A modify that leaves its rule's two outcomes indistinguishable is
// legitimately unmonitorable; any other verdict than confirmed is a bug.
func (w *monitorRun) churn(n int) error {
	for _, op := range churnRound(w.cfg.Seed, n, w.tables, churnPerSwitch) {
		reply, err := w.net.svc.ApplyRule(op.Switch, monocle.RuleOp{Op: "modify", ID: op.Rule,
			Actions: []monocle.ActionSpec{{Output: op.Port}}})
		if err != nil {
			return fmt.Errorf("churn modify S%d rule %d: %w", op.Switch, op.Rule, err)
		}
		if reply.Verdict != "confirmed" && reply.Verdict != "unmonitorable" {
			return fmt.Errorf("churn modify S%d rule %d: verdict %q", op.Switch, op.Rule, reply.Verdict)
		}
	}
	return nil
}

// ruleOps runs rule_ops: one client, one keep-alive loopback connection,
// a closed loop of add → modify → delete triples on fresh rule ids,
// round-robin over the switches, with no background sweeps.
func (w *monitorRun) ruleOps(ready func()) error {
	if err := w.build(); err != nil {
		return err
	}
	h := w.net.svc.Handler()
	if w.tr != nil {
		h = w.tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-srvDone
	}()
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	c := &opClient{base: "http://" + ln.Addr().String(), client: &http.Client{Transport: tp}}

	// Triple 0 is set-up: its add is the first op accepted; its modify
	// and delete complete before the window opens.
	triple := func(i int, measured bool) error {
		t := ruleOpFor(w.cfg.Seed, i, w.tables)
		spec := ruleSpecOf(t.Rule)
		ops := []monocle.RuleOp{
			{Op: "add", Rule: &spec},
			{Op: "modify", ID: t.Rule.ID, Actions: []monocle.ActionSpec{{Output: t.Moved}}},
			{Op: "delete", ID: t.Rule.ID},
		}
		for k, op := range ops {
			rec, err := c.do(t.Switch, op)
			if err != nil {
				return err
			}
			rec.Rule = t.Rule.ID
			if measured {
				w.res.Ops = append(w.res.Ops, rec)
			}
			if i == 0 && k == 0 {
				ready()
				if w.cfg.SetupOnly {
					return nil
				}
			}
		}
		return nil
	}
	if err := triple(0, false); err != nil || w.cfg.SetupOnly {
		return err
	}
	w.startWindow()
	window := time.Duration(w.cfg.Seconds * float64(time.Second))
	for i := 1; time.Since(w.winStart) < window; i++ {
		if err := triple(i, true); err != nil {
			return err
		}
	}
	w.res.RulesJudged = int64(len(w.res.Ops))
	w.endWindow()
	return nil
}

var (
	outputKind = monocle.Output(1).Kind
	setKind    = monocle.SetField(monocle.IPTos, 0).Kind
)

// ruleSpecOf renders a rule in the JSON form POST /switches/{id}/rules
// takes; every match cell uses the value&mask form.
func ruleSpecOf(r *monocle.Rule) monocle.RuleSpec {
	rs := monocle.RuleSpec{ID: r.ID, Priority: r.Priority, Match: map[string]string{}}
	for f := monocle.FieldID(0); f < monocle.NumFields; f++ {
		if t := r.Match[f]; t.Mask != 0 {
			rs.Match[f.String()] = fmt.Sprintf("0x%x&0x%x", t.Value, t.Mask)
		}
	}
	for _, a := range r.Actions {
		switch a.Kind {
		case outputKind:
			rs.Actions = append(rs.Actions, monocle.ActionSpec{Output: uint16(a.Port)})
		case setKind:
			rs.Actions = append(rs.Actions, monocle.ActionSpec{Set: &monocle.SetFieldSpec{Field: a.Field.String(), Value: a.Value}})
		}
	}
	return rs
}

// opClient posts rule ops over one keep-alive connection.
type opClient struct {
	base   string
	client *http.Client
}

func (c *opClient) do(sw uint32, op monocle.RuleOp) (opRec, error) {
	body, err := json.Marshal(op)
	if err != nil {
		return opRec{}, err
	}
	rec := opRec{Op: op.Op, Switch: sw}
	t := time.Now()
	resp, err := c.client.Post(c.base+"/switches/"+strconv.FormatUint(uint64(sw), 10)+"/rules", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Ms = float64(time.Since(t)) / 1e6
	if err != nil {
		return rec, err
	}
	rec.Status = resp.StatusCode
	var reply monocle.UpdateReply
	if resp.StatusCode == http.StatusOK && json.Unmarshal(b, &reply) == nil {
		rec.Verdict = reply.Verdict
		if reply.Record != nil && reply.Record.Probe != nil {
			rec.WireUnsafe = wireUnsafe(reply.Record.Probe.Header)
		}
	}
	return rec, nil
}

// faults runs fault_detect: Service.Run at a 1 s cadence with debounce 1
// and a WebhookSink to a loopback receiver that answers after 200 ms.
// An open-loop seeded schedule fails a random rule that was healthy in
// the first round every 1/faultRate seconds; each fault is healed (and
// its rule re-installed by the controller) once its alert arrives.
func (w *monitorRun) faults(ready func()) error {
	rc := &receiver{w: w, faults: make(map[[2]uint64]int)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rc}
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-srvDone
	}()
	var sink monocle.Sink = monocle.NewWebhookSink("http://"+ln.Addr().String()+"/alerts", nil)
	if w.tr != nil {
		sink = tracedSink{Sink: sink, tr: w.tr}
	}
	if err := w.build(monocle.WithSteadyInterval(steadyInterval), monocle.WithDebounce(1), monocle.WithAlertSink(sink)); err != nil {
		return err
	}
	ctl, err := dialControl(w.cfg.Rig.Control)
	if err != nil {
		return err
	}
	defer ctl.close()
	rc.ctl = ctl

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	if w.tr != nil {
		w.runStart = w.tr.now()
	}
	go func() {
		defer close(runDone)
		w.net.svc.Run(ctx)
	}()
	defer func() {
		cancel()
		<-runDone
	}()
	for w.net.svc.Metrics().Rounds < 1 {
		select {
		case <-runDone:
			return fmt.Errorf("Service.Run stopped before its first round")
		case <-time.After(10 * time.Millisecond):
		}
	}
	rc.setupDone()
	ready()
	if w.cfg.SetupOnly {
		return nil
	}

	// Faults target rules the first round judged healthy.
	healthy := make(map[uint32][]uint64)
	w.alertMu.Lock()
	for _, rec := range w.net.svc.LastSweep() {
		if rec.Probe != nil && !w.failing[[2]uint64{uint64(rec.Switch), rec.Rule}] {
			healthy[rec.Switch] = append(healthy[rec.Switch], rec.Rule)
		}
	}
	w.alertMu.Unlock()
	plan := faultPlan(w.cfg.Seed, healthy, w.sh.switches, int(w.cfg.Seconds*faultRate))

	w.startWindow()
	rules0 := w.net.svc.Metrics().RulesSwept
	window := time.Duration(w.cfg.Seconds * float64(time.Second))
	for i, key := range plan {
		due := w.winStart.Add(time.Duration(float64(i) / faultRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		rc.inject(key, due, lag)
		if w.tr != nil {
			w.faultDue = append(w.faultDue, int64(due.Sub(w.tr.epoch)))
		}
		if err := ctl.do("fail", key); err != nil {
			return err
		}
	}
	time.Sleep(time.Until(w.winStart.Add(window)))
	deadline := time.Now().Add(faultDrain)
	for !rc.allDetected() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-runDone
	rc.wait()
	w.res.RulesJudged = int64(w.net.svc.Metrics().RulesSwept - rules0)
	w.res.Faults = rc.results()
	w.endWindow()
	return rc.err()
}

// receiver is the webhook endpoint: it notes every alert's arrival,
// heals each detected fault (asynchronously), and answers after
// webhookDelay.
type receiver struct {
	w   *monitorRun
	ctl *controlConn

	mu      sync.Mutex
	setup   bool
	faults  map[[2]uint64]int // rule -> index into recs
	recs    []faultRec
	due     []time.Time
	healing sync.WaitGroup
	errs    []error
}

func (rc *receiver) setupDone() {
	rc.mu.Lock()
	rc.setup = true
	rc.mu.Unlock()
}

func (rc *receiver) inject(key [2]uint64, due time.Time, lag time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.faults[key] = len(rc.recs)
	rc.recs = append(rc.recs, faultRec{Switch: uint32(key[0]), Rule: key[1], LagMs: float64(lag) / 1e6, DetectMs: -1})
	rc.due = append(rc.due, due)
}

func (rc *receiver) ServeHTTP(wr http.ResponseWriter, r *http.Request) {
	at := time.Now()
	var alerts []monocle.Alert
	if err := json.NewDecoder(r.Body).Decode(&alerts); err != nil {
		http.Error(wr, err.Error(), http.StatusBadRequest)
		return
	}
	rc.mu.Lock()
	setup := !rc.setup
	for _, a := range alerts {
		key := [2]uint64{uint64(a.SwitchID), a.Rule}
		i, ok := rc.faults[key]
		if !ok || a.Type != monocle.AlertRuleFailing || rc.recs[i].DetectMs >= 0 {
			continue
		}
		rc.recs[i].DetectMs = float64(at.Sub(rc.due[i])) / 1e6
		rc.healing.Add(1)
		go rc.heal(key)
	}
	rc.mu.Unlock()
	rc.w.noteAlerts(alerts, setup)
	time.Sleep(webhookDelay)
	wr.WriteHeader(http.StatusOK)
}

// heal lifts the fault and has the controller re-install the rule.
func (rc *receiver) heal(key [2]uint64) {
	defer rc.healing.Done()
	err := rc.ctl.do("heal", key)
	if err == nil {
		var spec monocle.RuleSpec
		for _, r := range rc.w.tables[uint32(key[0])] {
			if r.ID == key[1] {
				spec = ruleSpecOf(r)
			}
		}
		_, err = rc.w.net.svc.ApplyRule(uint32(key[0]), monocle.RuleOp{Op: "add", Rule: &spec, Dataplane: "actual"})
	}
	if err != nil {
		rc.mu.Lock()
		rc.errs = append(rc.errs, fmt.Errorf("healing S%d rule %d: %w", key[0], key[1], err))
		rc.mu.Unlock()
	}
}

func (rc *receiver) allDetected() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, f := range rc.recs {
		if f.DetectMs < 0 {
			return false
		}
	}
	return true
}

func (rc *receiver) wait() { rc.healing.Wait() }

func (rc *receiver) results() []faultRec {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]faultRec(nil), rc.recs...)
}

func (rc *receiver) err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.errs) > 0 {
		return rc.errs[0]
	}
	return nil
}

// controlConn is the monitor's line-protocol connection to the rig.
type controlConn struct {
	mu   sync.Mutex
	conn net.Conn
	rd   *bufio.Reader
}

func dialControl(addr string) (*controlConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing rig control: %w", err)
	}
	return &controlConn{conn: conn, rd: bufio.NewReader(conn)}, nil
}

func (c *controlConn) do(cmd string, key [2]uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.conn, "%s %d %d\n", cmd, key[0], key[1]); err != nil {
		return err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return err
	}
	if line = strings.TrimSpace(line); line != "ok" {
		return fmt.Errorf("rig: %s", line)
	}
	return nil
}

func (c *controlConn) close() { c.conn.Close() }

// wireUnsafe reports whether a probe header changes on its way through
// CraftFrame and ParseFrame: a field the frame cannot carry (transport
// ports on an ICMP probe are 8-bit type/code) is lost on the wire, so
// the switch matches a different packet than the one the probe was
// generated for. This is ROADMAP item 1(d).
func wireUnsafe(h map[string]uint64) bool {
	var hdr monocle.Header
	for f := monocle.FieldID(0); f < monocle.NumFields; f++ {
		hdr.Set(f, h[f.String()])
	}
	frame, err := monocle.CraftFrame(hdr, nil)
	if err != nil {
		return true
	}
	got, _, err := monocle.ParseFrame(frame)
	if err != nil {
		return true
	}
	for f := monocle.FieldID(0); f < monocle.NumFields; f++ {
		if f != monocle.InPort && got.Get(f) != hdr.Get(f) {
			return true
		}
	}
	return false
}

// cpuMs is the process's user+system CPU time so far.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// gcCPU returns cumulative GC CPU seconds and total CPU seconds as the
// runtime accounts them.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// hostCPU returns the host-wide steal and total CPU time from /proc/stat
// (in clock ticks): the share of time the hypervisor ran someone else
// while this VM wanted the CPU.
func hostCPU() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var out [2]uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user..steal; guest time is already in user
			out[1] += n
		}
		if i == 7 {
			out[0] = n
		}
	}
	return out
}

// peakRSSKB is the process's peak resident set (VmHWM).
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}
