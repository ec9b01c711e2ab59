package monocle

// The monocled service layer: a long-running HTTP control surface over a
// Fleet of switch Backends, with the cross-epoch diff engine folding
// every sweep into alerts delivered through pluggable Sinks. The service
// owns the sweep loop (Run), judges every generated probe against the
// switch's data plane through its Backend driver (a simulated table for
// backend "sim", a live TCP OpenFlow 1.0 switch for backend "proxy"), and
// exposes the whole lifecycle over net/http: switches are added, rules
// installed/modified/deleted (driving the dynamic-update confirmation
// path), sweeps and alerts read back as JSON lines, and health/metrics
// polled (JSON or Prometheus text, content-negotiated). Rule operations
// can target the expected table, the data plane, or both — mutating only
// the data plane is exactly the "hardware diverged behind the
// controller's back" fault the paper's monitoring exists to catch.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Service is the long-running monocled fleet service. Build one with
// NewService, mount Handler on an HTTP server, and drive the sweep loop
// with Run; or call SweepRound directly for externally-paced sweeps.
// Close shuts the switch backends and alert sinks down.
type Service struct {
	set    settings
	fleet  *Fleet
	differ *Differ
	ring   *RingSink
	sinks  []Sink
	store  Store

	// sweepMu serializes sweep rounds (Run's loop and POST /sweep), so
	// concurrent rounds cannot interleave their diff-engine folds.
	sweepMu sync.Mutex

	// proxyGroup is the one event loop + probe-routing Multiplexer all
	// of this service's proxy backends share, so probes caught at any
	// member switch route back to their owner (its loop starts with the
	// first proxy that connects).
	proxyGroup *ProxyGroup

	// opLocks holds one *sync.Mutex per switch, held from an
	// expected-table mutation through its WAL append so a switch's
	// records land in the order its table committed them.
	opLocks sync.Map

	// recorders holds the per-switch session recorders WithRecordDir
	// created, for the session-layer annotations (rule ops, round marks).
	recMu     sync.Mutex
	recorders map[uint32]*RecordBackend

	// evq accumulates backend lifecycle events between sweep rounds; the
	// next round drains it into the diff engine before folding results,
	// so reconnect cycles land deterministically at round boundaries.
	evMu sync.Mutex
	evq  []BackendEvent

	// polMu guards the active monitoring policy, the per-switch tag
	// sets (keyed by every tracked switch, see track), and the plan
	// version Run's scheduler watches so a policy swap or switch
	// registration rebuilds the per-group cadences.
	polMu   sync.Mutex
	pol     *Policy
	tags    map[uint32][]string
	planVer uint64

	mu sync.Mutex
	// lastSweep is the last round's events, its member sweeps flattened.
	// Each round publishes a fresh slice and never writes it again, so
	// readers render its records outside s.mu.
	lastSweep    []SweepEvent
	metrics      ServiceMetrics
	alertsByType map[string]uint64
	// groupStats holds the per-group counters; a group's Rounds is also
	// its sampling sequence index (see compilePlans).
	groupStats map[string]*GroupMetrics
	draining   bool
	// resuming is true while Resume replays the WAL: the service is alive
	// but must not be routed to (GET /readyz stays 503).
	resuming bool
	// liveRounds counts sweep rounds completed in THIS process life
	// (Resume restores metrics.Rounds but not liveRounds): readiness
	// requires at least one, so a replica still warming up after a
	// restart is never routed to before its first post-resume round.
	liveRounds uint64

	// closeOnce makes Close idempotent and safe to race from several
	// goroutines (a cluster coordinator tearing down replicas easily
	// double-Closes); the first call's error is returned to all callers.
	closeOnce sync.Once
	closeErr  error
}

// ServiceMetrics is the GET /metrics payload.
type ServiceMetrics struct {
	// Rounds counts completed sweep rounds.
	Rounds uint64 `json:"rounds"`
	// RulesSwept counts per-rule results across all rounds.
	RulesSwept uint64 `json:"rules_swept"`
	// AlertsTotal counts alerts raised across all rounds.
	AlertsTotal uint64 `json:"alerts_total"`
	// LastRoundRules is the result count of the most recent round.
	LastRoundRules int `json:"last_round_rules"`
	// LastRoundMicros is the most recent round's wall time in µs.
	LastRoundMicros int64 `json:"last_round_micros"`
	// LastRoundMicrosPerRule is the most recent round's per-rule cost.
	LastRoundMicrosPerRule float64 `json:"last_round_us_per_rule"`
	// AlertsByType breaks AlertsTotal down by alert type name.
	AlertsByType map[string]uint64 `json:"alerts_by_type,omitempty"`
	// SinkErrors counts failed alert-sink deliveries.
	SinkErrors uint64 `json:"sink_errors,omitempty"`
	// StoreErrors counts failed persistence-store writes (the service
	// keeps monitoring through them; a bad disk must not stop sweeps).
	StoreErrors uint64 `json:"store_errors,omitempty"`
	// PolicyErrors counts rejected policy loads: a persisted policy that
	// no longer parses on Resume (the service keeps monitoring without
	// the policy).
	PolicyErrors uint64 `json:"policy_errors,omitempty"`
	// Switches carries the per-switch epoch and cache snapshots.
	Switches []SwitchMetrics `json:"switches,omitempty"`
	// Groups carries the per-policy-group sweep counters, sorted by
	// group name (empty without an active policy).
	Groups []GroupMetrics `json:"groups,omitempty"`
}

// SwitchMetrics is one switch's slice of GET /metrics.
type SwitchMetrics struct {
	Switch uint32     `json:"switch"`
	Epoch  uint64     `json:"epoch"`
	Rules  int        `json:"rules"`
	Cache  CacheStats `json:"cache"`
	// EventsDropped counts driver lifecycle events dropped from the
	// switch's backend event stream (buffer overflow with no consumer
	// keeping up) — a non-zero value means disconnect/reconnect evidence
	// may be missing.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// GroupMetrics is one policy group's slice of GET /metrics.
type GroupMetrics struct {
	// Group is the policy group name ("default" for the implicit
	// catch-all group).
	Group string `json:"group"`
	// Switches counts fleet members currently resolving to the group.
	Switches int `json:"switches"`
	// Rounds counts completed sweep rounds that included the group.
	Rounds uint64 `json:"rounds"`
	// RulesCovered counts per-rule results the group's switches
	// contributed across all rounds.
	RulesCovered uint64 `json:"rules_covered"`
	// LastRoundRules is the group's result count in its most recent
	// round.
	LastRoundRules int `json:"last_round_rules"`
	// LastRoundMicros is the wall time of the group's most recent round
	// in µs (a round sweeping several groups shares its wall time).
	LastRoundMicros int64 `json:"last_round_micros"`
	// LastRoundMicrosPerRule is the group's most recent per-rule cost.
	LastRoundMicrosPerRule float64 `json:"last_round_us_per_rule"`
}

// SwitchSpec is the POST /switches request body.
type SwitchSpec struct {
	// ID is the switch id (required, non-zero).
	ID uint32 `json:"id"`
	// Tags are free-form labels monitoring-policy selectors match
	// ("select tag ..."); they have no effect without a policy.
	Tags []string `json:"tags,omitempty"`
	// Tag pins the probe tag (default: the switch id). The resolved tag
	// must be 1–4094, the VIDs dl_vlan can carry; AddSwitch rejects any
	// other value.
	Tag uint64 `json:"tag,omitempty"`
	// Ports restricts probe in_port values to the switch's real ports.
	Ports []uint16 `json:"ports,omitempty"`
	// Miss is the table-miss behaviour: "drop" (default) or "controller".
	Miss string `json:"miss,omitempty"`
	// Backend selects the switch driver: "sim" (default — a simulated
	// in-memory data plane), "proxy" (a live TCP OpenFlow 1.0 switch
	// fronted by the library's proxy driver), or "replay" (a recorded
	// session trace re-served deterministically with zero network access).
	Backend string `json:"backend,omitempty"`
	// Address is the switch's TCP address (backend "proxy").
	Address string `json:"address,omitempty"`
	// Trace is the path of the recorded session trace to re-serve
	// (backend "replay"; see WithRecordDir and cmd/monotrace).
	Trace string `json:"trace,omitempty"`
	// Listen is the controller-side proxy listen address (backend
	// "proxy", optional: empty means the service is the only controller).
	// The proxy's Monitor confirms the rules a controller installs
	// through it, but they are not in the Service's expected table, so
	// sweep rounds do not probe them.
	Listen string `json:"listen,omitempty"`
	// Peers maps switch ports to the neighbour switch id reachable over
	// them — the downstream probe catchers (backend "proxy").
	Peers map[uint16]uint32 `json:"peers,omitempty"`
}

// RuleOp is the POST /switches/{id}/rules request body.
type RuleOp struct {
	// Op is "add", "modify", or "delete".
	Op string `json:"op"`
	// Rule is the rule to add (op=add).
	Rule *RuleSpec `json:"rule,omitempty"`
	// ID selects the rule to modify/delete.
	ID uint64 `json:"id,omitempty"`
	// Actions is the replacement action list (op=modify).
	Actions []ActionSpec `json:"actions,omitempty"`
	// Dataplane targets the operation: "both" (default — the normal
	// controller path: expected table and data plane move together),
	// "expected" (the controller believes the change happened but the
	// hardware never applied it), or "actual" (the hardware changed
	// behind the verifier's back). The last two are the fault-injection
	// hooks continuous monitoring exists to catch.
	Dataplane string `json:"dataplane,omitempty"`
}

// UpdateReply is the POST /switches/{id}/rules response body.
type UpdateReply struct {
	Switch uint32 `json:"switch"`
	Rule   uint64 `json:"rule"`
	Op     string `json:"op"`
	// Verdict is the dynamic-update confirmation probe's judgement
	// against the data plane ("confirmed"/"absent"/"unexpected", as the
	// Verdict type defines), or "unmonitorable"/"none" when no probe
	// exists, or "unobserved" when the mutation committed but the
	// confirmation probe could not be observed (backend closed or
	// disconnected mid-window). For deletions, "absent" is the success
	// verdict — the probe fell through.
	Verdict string `json:"verdict,omitempty"`
	// Record is the confirmation probe's result record, when one exists.
	Record *ResultRecord `json:"record,omitempty"`
}

// NewService returns an empty fleet service. The options parameterize the
// embedded Fleet (WithWorkers, WithSteadyInterval, per-switch defaults),
// the diff engine (WithDebounce, WithStallThreshold, WithFlapWindow), and
// alert delivery (WithAlertSink). Without an explicit *RingSink, a
// default in-memory ring of 4096 alerts backs GET /alerts.
func NewService(opts ...Option) *Service {
	set := defaultSettings()
	set.apply(opts)
	s := &Service{
		set:          set,
		fleet:        NewFleet(opts...),
		differ:       NewDiffer(opts...),
		proxyGroup:   NewProxyGroup(),
		recorders:    make(map[uint32]*RecordBackend),
		alertsByType: make(map[string]uint64),
		tags:         make(map[uint32][]string),
		groupStats:   make(map[string]*GroupMetrics),
	}
	for _, sink := range set.sinks {
		if ring, ok := sink.(*RingSink); ok {
			s.ring = ring
		}
	}
	if s.ring == nil {
		s.ring = NewRingSink(0)
		s.sinks = append(s.sinks, s.ring)
	}
	s.sinks = append(s.sinks, set.sinks...)
	switch {
	case set.store != nil:
		s.store = set.store
	case set.stateDir != "":
		if st, err := OpenFileStore(set.stateDir); err == nil {
			s.store = st
		} else {
			s.metrics.StoreErrors++
		}
	}
	s.pol = set.policy
	if s.pol != nil && s.store != nil {
		if err := s.store.SavePolicy(s.pol.Source()); err != nil {
			s.metrics.StoreErrors++
		}
	}
	return s
}

// Store returns the service's persistence store (nil without WithStore /
// WithStateDir).
func (s *Service) Store() Store { return s.store }

// noteStoreErr counts one failed store write.
func (s *Service) noteStoreErr() {
	s.mu.Lock()
	s.metrics.StoreErrors++
	s.mu.Unlock()
}

// lockSwitchOps takes switch id's op lock and returns its unlock.
func (s *Service) lockSwitchOps(id uint32) func() {
	mu, _ := s.opLocks.LoadOrStore(id, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	return mu.(*sync.Mutex).Unlock
}

// commitRuleOp runs one expected-table mutation of switch id under its
// op lock and, when the mutation moved the table's epoch, logs op (in its
// canonical form, see Store.SaveRuleOp) with the new epoch before the
// lock is released, and so before any confirmation observation: a crash
// mid-observation restarts with the post-op table. An op whose probe
// generation failed after the table changed is logged too: the change
// stands.
func (s *Service) commitRuleOp(id uint32, v *Verifier, op RuleOp, mutate func() (*Probe, error)) (*Probe, error) {
	defer s.lockSwitchOps(id)()
	before := v.Epoch()
	p, err := mutate()
	if epoch := v.Epoch(); epoch != before && s.store != nil {
		if err := s.store.SaveRuleOp(id, epoch, op); err != nil {
			s.noteStoreErr()
		}
	}
	return p, err
}

// Fleet returns the service's underlying fleet (programmatic access from
// the same process; the HTTP surface is a thin layer over it).
func (s *Service) Fleet() *Fleet { return s.fleet }

// Differ returns the service's diff engine.
func (s *Service) Differ() *Differ { return s.differ }

// Policy returns the active monitoring policy (nil when none).
func (s *Service) Policy() *Policy {
	s.polMu.Lock()
	defer s.polMu.Unlock()
	return s.pol
}

// planVersion returns the counter Run's scheduler watches: it bumps
// whenever the group layout may have changed (policy swap, new switch).
func (s *Service) planVersion() uint64 {
	s.polMu.Lock()
	defer s.polMu.Unlock()
	return s.planVer
}

// tagsOf returns switch id's registration tags.
func (s *Service) tagsOf(id uint32) []string {
	s.polMu.Lock()
	defer s.polMu.Unlock()
	return s.tags[id]
}

// SetPolicy atomically replaces the active monitoring policy (nil clears
// it): every switch re-resolves to its group, the diff engine's
// threshold and alert-filter overrides and the proxy drivers'
// confirmation deadlines are re-applied, Run's scheduler rebuilds its
// per-group cadences before the next round, and the policy text is
// persisted so Resume restores it after a restart. A sweep round already
// in flight finishes under the plan it was compiled with.
func (s *Service) SetPolicy(p *Policy) {
	s.polMu.Lock()
	s.pol = p
	s.planVer++
	s.polMu.Unlock()

	ids, _ := s.switchIDs()
	for _, id := range ids {
		tags := s.tagsOf(id)
		var ov *DiffOverrides
		if p != nil {
			ov = p.overridesFor(id, tags)
		}
		s.differ.SetOverrides(id, ov)
		if be, ok := s.fleet.Backend(id); ok {
			if pb, ok := UnwrapBackend(be).(*ProxyBackend); ok {
				pb.SetObserveTimeout(s.confirmWithin(p, id, tags))
			}
		}
	}
	if s.store != nil {
		src := ""
		if p != nil {
			src = p.Source()
		}
		if err := s.store.SavePolicy(src); err != nil {
			s.noteStoreErr()
		}
	}
}

// confirmWithin resolves a proxy switch's observation deadline: the
// policy's "confirm within" for it, else WithDetectionTimeout, else the
// proxy driver's default.
func (s *Service) confirmWithin(pol *Policy, id uint32, tags []string) time.Duration {
	if pol != nil {
		if c := pol.confirmOf(id, tags); c > 0 {
			return c
		}
	}
	if s.set.detectionTimeout > 0 {
		return s.set.detectionTimeout
	}
	return defaultObserveTimeout
}

// AddSwitch registers a switch with the service: a fleet Verifier for the
// expected table plus the Backend driver sweeps are judged against — a
// simulated data-plane table (backend "sim", the default) or the live TCP
// proxy driver dialing spec.Address (backend "proxy"). The HTTP
// POST /switches endpoint calls this.
func (s *Service) AddSwitch(spec SwitchSpec) (*Verifier, error) {
	if spec.ID == 0 {
		return nil, fmt.Errorf("monocle: switch id must be non-zero")
	}
	// Catch duplicates before any trace file is created: re-registering a
	// switch must not truncate the trace its live session is writing.
	if _, dup := s.fleet.Verifier(spec.ID); dup {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateSwitch, spec.ID)
	}
	pol := s.Policy()
	// Default to the service-level option (WithTableMiss), not MissDrop.
	miss := s.set.miss
	switch spec.Miss {
	case "":
	case "drop":
		miss = MissDrop
	case "controller":
		miss = MissController
	default:
		return nil, fmt.Errorf("monocle: unknown miss behaviour %q", spec.Miss)
	}
	var opts []Option
	opts = append(opts, WithTableMiss(miss))
	if spec.Tag != 0 {
		opts = append(opts, WithProbeTag(spec.Tag))
	}
	if len(spec.Ports) > 0 {
		ports := make([]PortID, len(spec.Ports))
		for i, p := range spec.Ports {
			ports[i] = PortID(p)
		}
		opts = append(opts, WithPorts(ports...))
	}
	if len(spec.Peers) > 0 {
		peers := make(map[PortID]uint32, len(spec.Peers))
		for p, id := range spec.Peers {
			peers[PortID(p)] = id
		}
		opts = append(opts, WithPeers(peers))
	}
	// Refuse a probe tag the wire cannot carry before any backend is
	// dialed or trace file created.
	set := s.fleet.set
	set.apply(opts)
	if _, err := set.probeConfig(spec.ID); err != nil {
		return nil, err
	}

	var be Backend
	switch spec.Backend {
	case "", "sim":
		be = NewSimBackend(spec.ID, WithTableMiss(miss))
	case "proxy":
		if spec.Address == "" {
			return nil, fmt.Errorf("monocle: backend \"proxy\" needs an address")
		}
		// A policy "confirm within" deadline for this switch bounds the
		// proxy's Observe round trips from the first observation on.
		be = NewProxyBackend(ProxyConfig{
			SwitchID:       spec.ID,
			SwitchAddr:     spec.Address,
			Listen:         spec.Listen,
			ObserveTimeout: s.confirmWithin(pol, spec.ID, spec.Tags),
			Group:          s.proxyGroup,
			ReconnectMin:   s.set.reconnectMin,
			ReconnectMax:   s.set.reconnectMax,
		}, opts...)
	case "replay":
		if spec.Trace == "" {
			return nil, fmt.Errorf("monocle: backend \"replay\" needs a trace path")
		}
		rb, err := OpenReplayBackend(spec.Trace)
		if err != nil {
			return nil, err
		}
		if rb.SwitchID() != spec.ID {
			return nil, fmt.Errorf("monocle: trace %s records switch %d, not %d", spec.Trace, rb.SwitchID(), spec.ID)
		}
		be = rb
	default:
		return nil, fmt.Errorf("monocle: unknown backend %q", spec.Backend)
	}
	// Wrap the driver before Connect so the whole session lands on the
	// trace, then tap it so lifecycle events feed the diff engine. A replay
	// driver is never re-recorded: pointing -record-dir at the directory a
	// trace replays from must not overwrite the evidence.
	if s.set.recordDir != "" && spec.Backend != "replay" {
		if rb, err := s.recordSwitch(be); err == nil {
			rb.RecordSpec(spec)
			be = rb
		} else {
			be.Close()
			return nil, fmt.Errorf("monocle: record dir: %w", err)
		}
	}
	be = s.tapBackend(be)
	if err := be.Connect(context.Background()); err != nil {
		be.Close()
		return nil, err
	}
	v, err := s.fleet.AddBackend(be, opts...)
	if err != nil {
		be.Close()
		s.dropRecorder(spec.ID)
		return nil, err
	}
	s.track(spec.ID, spec.Tags)
	if s.store != nil {
		if err := s.store.SaveSwitch(spec); err != nil {
			s.noteStoreErr()
		}
	}
	return v, nil
}

// track records a switch's tags for policy resolution, applies the
// active policy's alerting overrides to it, and rebuilds Run's schedule.
// A tracked switch is in the scope of its group's rounds. AddSwitch
// tracks every member; Resume also tracks the switches it could not
// re-register (remembered switches, not members), so their rounds keep
// counting them and a lost switch goes switch_stalled instead of being
// forgotten.
func (s *Service) track(id uint32, tags []string) {
	s.polMu.Lock()
	s.tags[id] = append([]string(nil), tags...)
	s.planVer++
	pol := s.pol
	s.polMu.Unlock()
	if pol != nil {
		s.differ.SetOverrides(id, pol.overridesFor(id, tags))
	}
}

// recordSwitch wraps be in a RecordBackend writing to the service's
// record directory (WithRecordDir), registering the recorder for the
// session-layer annotations (rule ops, round marks).
func (s *Service) recordSwitch(be Backend) (*RecordBackend, error) {
	id := be.SwitchID()
	if err := os.MkdirAll(s.set.recordDir, 0o755); err != nil {
		return nil, err
	}
	tw, err := CreateTrace(filepath.Join(s.set.recordDir, fmt.Sprintf("switch-%d.trace", id)), TraceHeader{Switch: id})
	if err != nil {
		return nil, err
	}
	rb := NewRecordBackend(be, tw)
	s.recMu.Lock()
	s.recorders[id] = rb
	s.recMu.Unlock()
	return rb, nil
}

// recorder returns switch id's session recorder, nil when not recording.
func (s *Service) recorder(id uint32) *RecordBackend {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.recorders[id]
}

// dropRecorder forgets a recorder after a failed registration.
func (s *Service) dropRecorder(id uint32) {
	s.recMu.Lock()
	delete(s.recorders, id)
	s.recMu.Unlock()
}

// backendTap is the Service's outermost backend wrapper: it consumes the
// driver's lifecycle event stream, queues every event for the diff
// engine (drained at the next sweep round, so reconnect cycles fold at
// round boundaries), and re-emits it on its own ring for external
// consumers. The queue is appended before the re-emit: a consumer that
// saw an event on Events() knows the diff engine will see it no later
// than the next round — the ordering scenario tests lean on.
type backendTap struct {
	Backend
	svc    *Service
	events *eventRing
	done   chan struct{}
}

// tapBackend wraps be in the service's event tap.
func (s *Service) tapBackend(be Backend) *backendTap {
	t := &backendTap{Backend: be, svc: s, events: newEventRing(), done: make(chan struct{})}
	go t.pump()
	return t
}

func (t *backendTap) pump() {
	defer close(t.done)
	for ev := range t.Backend.Events() {
		t.svc.queueBackendEvent(ev)
		t.events.emit(ev)
	}
	t.events.close()
}

// Unwrap returns the wrapped driver (see UnwrapBackend).
func (t *backendTap) Unwrap() Backend { return t.Backend }

// Events implements Backend with the tap's re-emitted stream.
func (t *backendTap) Events() <-chan BackendEvent { return t.events.ch }

// EventDrops implements Backend: the tap's own drops plus the wrapped
// driver's.
func (t *backendTap) EventDrops() uint64 { return t.events.drops() + t.Backend.EventDrops() }

// Close implements Backend, waiting for the pump to drain so every event
// the driver emitted reaches the diff-engine queue before Close returns.
func (t *backendTap) Close() error {
	err := t.Backend.Close()
	<-t.done
	return err
}

// queueBackendEvent queues one driver lifecycle event for the diff
// engine; SweepRound drains the queue before folding results.
func (s *Service) queueBackendEvent(ev BackendEvent) {
	s.evMu.Lock()
	s.evq = append(s.evq, ev)
	s.evMu.Unlock()
}

// drainBackendEvents feeds queued driver events to the diff engine.
func (s *Service) drainBackendEvents() {
	s.evMu.Lock()
	q := s.evq
	s.evq = nil
	s.evMu.Unlock()
	for _, ev := range q {
		s.differ.ObserveBackendEvent(ev)
	}
}

// InstallRules loads pre-existing rules into switch id: the expected
// table and the backend data plane move together, without confirmation
// probes (bulk loads, catching rules, state already on the switch).
func (s *Service) InstallRules(id uint32, rules ...*Rule) error {
	v, ok := s.fleet.Verifier(id)
	if !ok {
		return ErrNotFound
	}
	be, hasBE := s.fleet.Backend(id)
	for _, r := range rules {
		if hasBE {
			if err := be.Apply(BackendOp{Op: "add", Rule: r}); err != nil {
				return err
			}
		}
	}
	unlock := s.lockSwitchOps(id)
	err := v.Install(rules...)
	if s.store != nil {
		epoch, specs := v.snapshot()
		if err := s.store.SaveRules(id, epoch, specs); err != nil {
			s.noteStoreErr()
		}
	}
	unlock()
	if err == nil {
		if rec := s.recorder(id); rec != nil {
			for _, r := range rules {
				rs := ruleSpec(r)
				rec.RecordRuleOp(RuleOp{Op: "install", Rule: &rs})
			}
		}
	}
	return err
}

// InstallRuleSpecs is InstallRules for JSON-form rules — the form trace
// annotations and HTTP clients carry. cmd/monotrace re-drives recorded
// "install" annotations through it.
func (s *Service) InstallRuleSpecs(id uint32, specs ...RuleSpec) error {
	rules := make([]*Rule, len(specs))
	for i := range specs {
		r, err := specs[i].Rule()
		if err != nil {
			return err
		}
		rules[i] = r
	}
	return s.InstallRules(id, rules...)
}

// ApplyRule executes one rule operation against switch id, updating the
// expected table and/or the data plane (through the switch's Backend
// driver) per op.Dataplane, and judges the dynamic-update confirmation
// probe against the data plane.
func (s *Service) ApplyRule(id uint32, op RuleOp) (UpdateReply, error) {
	return s.applyRule(context.Background(), id, op)
}

// applyRule is ApplyRule with the confirmation observation bounded by
// ctx: an HTTP rule op passes its request context, so a client that goes
// away cannot hold the handler on a data plane that never settles.
func (s *Service) applyRule(ctx context.Context, id uint32, op RuleOp) (UpdateReply, error) {
	v, ok := s.fleet.Verifier(id)
	if !ok {
		return UpdateReply{}, ErrNotFound
	}
	expected := op.Dataplane == "" || op.Dataplane == "both" || op.Dataplane == "expected"
	dataplane := op.Dataplane == "" || op.Dataplane == "both" || op.Dataplane == "actual"
	if !expected && !dataplane {
		return UpdateReply{}, fmt.Errorf("monocle: unknown dataplane target %q", op.Dataplane)
	}
	be, hasBE := s.fleet.Backend(id)
	// Switches registered directly on the underlying Fleet have no
	// data-plane driver; a mutation targeting it cannot be applied.
	if dataplane && !hasBE {
		return UpdateReply{}, fmt.Errorf("monocle: switch %d has no data-plane backend (registered outside the service); use dataplane:\"expected\"", id)
	}

	// preImage resolves the rule an op with a bare id refers to, so the
	// driver sees its match and priority (wire operations need them).
	// Nil when the id is unknown to the expected table: id-addressed
	// drivers proceed, wire drivers refuse (see BackendOp.Rule).
	preImage := func(ruleID uint64) *Rule {
		if r, ok := v.Rule(ruleID); ok {
			return r
		}
		return nil
	}

	// unprobeable reports genErr is a structural no-probe-exists sentinel:
	// the table mutation itself succeeded, so the operation must not turn
	// into an HTTP error (the state did change) — it surfaces as an
	// "unmonitorable" verdict instead.
	unprobeable := func(err error) bool {
		return errors.Is(err, ErrUnmonitorable) || errors.Is(err, ErrRewritesProbeField)
	}
	var (
		p      *Probe
		genErr error
		ruleID uint64
		expect Expectation
	)
	switch op.Op {
	case "add":
		if op.Rule == nil {
			return UpdateReply{}, fmt.Errorf("monocle: add needs a rule")
		}
		r, err := op.Rule.Rule()
		if err != nil {
			return UpdateReply{}, err
		}
		ruleID = r.ID
		expect = ExpectPresent
		// Update the data plane first so the confirmation probe is
		// judged against post-update hardware state (the normal path).
		if dataplane {
			if err := be.Apply(BackendOp{Op: "add", Rule: r}); err != nil {
				return UpdateReply{}, err
			}
		}
		if expected {
			rs := ruleSpec(r)
			p, genErr = s.commitRuleOp(id, v, RuleOp{Op: "add", Rule: &rs}, func() (*Probe, error) { return v.Add(r) })
			if genErr != nil && !unprobeable(genErr) {
				return UpdateReply{}, genErr
			}
		}
	case "modify":
		actions, err := actionList(op.Actions)
		if err != nil {
			return UpdateReply{}, err
		}
		ruleID = op.ID
		expect = ExpectModified
		if dataplane {
			if err := be.Apply(BackendOp{Op: "modify", ID: op.ID, Rule: preImage(op.ID), Actions: actions}); err != nil {
				return UpdateReply{}, err
			}
		}
		if expected {
			specs := make([]ActionSpec, len(actions))
			for i, a := range actions {
				specs[i] = actionSpec(a)
			}
			p, genErr = s.commitRuleOp(id, v, RuleOp{Op: "modify", ID: op.ID, Actions: specs}, func() (*Probe, error) { return v.Modify(op.ID, actions) })
			if genErr != nil && !unprobeable(genErr) {
				return UpdateReply{}, genErr
			}
		}
	case "delete":
		ruleID = op.ID
		expect = ExpectAbsent
		pre := preImage(op.ID)
		var applyErr error
		applyDelete := func() {
			if dataplane {
				applyErr = be.Apply(BackendOp{Op: "delete", ID: op.ID, Rule: pre})
			}
		}
		if expected {
			// The FlowMod leaves before the WAL append, as an add's and a
			// modify's do, so the switch commits it while the record syncs.
			p, genErr = s.commitRuleOp(id, v, RuleOp{Op: "delete", ID: op.ID}, func() (*Probe, error) {
				p, err := v.Delete(op.ID)
				if err == nil || unprobeable(err) {
					applyDelete()
				}
				return p, err
			})
			if genErr != nil && !unprobeable(genErr) {
				return UpdateReply{}, genErr
			}
		} else {
			applyDelete()
		}
		if applyErr != nil {
			return UpdateReply{}, applyErr
		}
	default:
		return UpdateReply{}, fmt.Errorf("monocle: unknown op %q", op.Op)
	}
	reply := UpdateReply{Switch: id, Rule: ruleID, Op: op.Op, Verdict: "none"}
	switch {
	case unprobeable(genErr):
		reply.Verdict = "unmonitorable"
	case p != nil && hasBE:
		rec := NewResultRecord(id, v.Epoch(), ProbeResult{Rule: &Rule{ID: ruleID}, Probe: p})
		reply.Record = &rec
		verdict, err := be.Observe(ctx, p, expect)
		if err != nil {
			// The table mutation already committed on both sides; only
			// the confirmation observation failed (backend closed or
			// disconnected mid-window, or the request went away). The
			// operation must not turn into an HTTP error — a retry would
			// re-apply a committed change.
			reply.Verdict = "unobserved"
			break
		}
		reply.Verdict = verdict.String()
	}
	// Annotate the trace with the session-level operation so cmd/monotrace
	// can re-drive the same RuleOp against a replayed backend. Written
	// after the backend calls it produced, and only for ops that
	// committed: a rejected op left nothing on the trace to replay.
	if rec := s.recorder(id); rec != nil {
		rec.RecordRuleOp(op)
	}
	return reply, nil
}

// Alerts returns a snapshot of the alert ring (oldest first).
func (s *Service) Alerts() []Alert { return s.ring.Alerts() }

// Close shuts the service down: every switch backend and every alert sink
// is closed. It does not stop a concurrently running Run loop — cancel
// its context first. Close is idempotent and safe to call from several
// goroutines concurrently (including concurrently with a Run drain):
// the shutdown runs once and every caller gets the first call's error.
func (s *Service) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.doClose() })
	return s.closeErr
}

// doClose is the single-execution body of Close. It serializes against an
// in-flight sweep round (sweepMu), so backends and the store are never
// closed under a round that is still folding through them.
func (s *Service) doClose() error {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	var firstErr error
	for _, id := range s.fleet.Switches() {
		if be, ok := s.fleet.Backend(id); ok {
			if err := be.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, sink := range s.sinks {
		if err := sink.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Resume restores the service from its Store after a process restart:
// switches are re-registered (proxy backends re-dial their switches),
// expected tables are re-installed and their table-change epochs
// fast-forwarded to the persisted values, the diff engine's folded state
// is restored, and the persisted alert history refills the in-memory ring
// backing GET /alerts. Restored alerts go only to the ring — webhook and
// log sinks already delivered them in the previous life. After Resume the
// next sweep round diffs against the pre-restart history: an unchanged
// fleet raises no alerts, a rule that was failing keeps its streak, and a
// rule healed during the outage raises exactly one rule_recovered.
//
// Resume is a no-op without a store. Call it once, before Run or any
// sweep. Switches that fail to re-register (an unreachable proxy switch)
// are reported in the joined error and stay remembered under their
// persisted tags: their group's rounds keep counting them, so they go
// switch_stalled after WithStallThreshold rounds; the rest of the fleet
// resumes.
func (s *Service) Resume(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	// The service is not routable while the WAL replays: GET /readyz
	// reports resuming until the flag clears AND the first post-resume
	// round completes, so a cluster coordinator never fans work out to a
	// replica whose expected tables are still being rebuilt.
	s.mu.Lock()
	s.resuming = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.resuming = false
		s.mu.Unlock()
	}()
	state, err := s.store.Load()
	if err != nil {
		return fmt.Errorf("monocle: resume: %w", err)
	}
	var errs []error
	ids := make([]uint32, 0, len(state.Switches))
	for id := range state.Switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	diffState := DifferState{Rounds: state.Rounds, Seq: state.AlertSeq, Switches: make(map[uint32]SwitchDiffState)}
	for _, id := range ids {
		st := state.Switches[id]
		if st.HasDiff {
			diffState.Switches[id] = st.Diff
		}
		if st.Spec.ID == 0 {
			s.track(id, nil) // fold state without a registration record
			continue
		}
		v, err := s.AddSwitch(st.Spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("switch %d: %w", id, err))
			s.track(id, st.Spec.Tags)
			continue
		}
		if len(st.Rules) > 0 {
			rules := make([]*Rule, 0, len(st.Rules))
			for i := range st.Rules {
				r, err := st.Rules[i].Rule()
				if err != nil {
					errs = append(errs, fmt.Errorf("switch %d rule %d: %w", id, st.Rules[i].ID, err))
					continue
				}
				rules = append(rules, r)
			}
			// A sim data plane died with the old process: replay the
			// snapshot into the fresh table. A proxy backend's data plane
			// is the live switch itself — the rules are still on the
			// hardware, so only the expected side is restored (re-applying
			// would rewrite the data plane the monitor is supposed to be
			// verifying).
			if be, ok := s.fleet.Backend(id); ok {
				if _, sim := UnwrapBackend(be).(*SimBackend); sim {
					for _, r := range rules {
						if err := be.Apply(BackendOp{Op: "add", Rule: r}); err != nil {
							errs = append(errs, fmt.Errorf("switch %d rule %d: %w", id, r.ID, err))
						}
					}
				}
			}
			if err := v.Install(rules...); err != nil {
				errs = append(errs, fmt.Errorf("switch %d: %w", id, err))
			}
		}
		v.restoreEpoch(st.Epoch)
	}
	// The previous life's policy comes back after the switches so the
	// swap re-applies overrides to the restored fleet. An explicit
	// WithPolicy takes precedence over the persisted text.
	if state.Policy != "" && s.Policy() == nil {
		if p, err := ParsePolicy(state.Policy); err == nil {
			s.SetPolicy(p)
		} else {
			errs = append(errs, fmt.Errorf("persisted policy: %w", err))
			s.mu.Lock()
			s.metrics.PolicyErrors++
			s.mu.Unlock()
		}
	}
	s.differ.Restore(diffState)
	if len(state.Alerts) > 0 {
		if err := s.ring.Deliver(ctx, state.Alerts); err != nil {
			errs = append(errs, err)
		}
	}
	s.mu.Lock()
	s.metrics.Rounds = state.Rounds
	s.metrics.AlertsTotal = uint64(len(state.Alerts))
	for _, a := range state.Alerts {
		s.alertsByType[a.Type.String()]++
	}
	s.mu.Unlock()
	return errors.Join(errs...)
}

// Metrics returns a snapshot of the service counters with per-switch
// epoch and cache detail attached.
func (s *Service) Metrics() ServiceMetrics {
	s.mu.Lock()
	m := s.metrics
	if len(s.alertsByType) > 0 {
		m.AlertsByType = make(map[string]uint64, len(s.alertsByType))
		for k, v := range s.alertsByType {
			m.AlertsByType[k] = v
		}
	}
	groups := make(map[string]GroupMetrics, len(s.groupStats))
	for g, gs := range s.groupStats {
		groups[g] = *gs
	}
	s.mu.Unlock()
	pol := s.Policy()
	for _, id := range s.fleet.Switches() {
		v, _ := s.fleet.Verifier(id)
		sm := SwitchMetrics{Switch: id, Epoch: v.Epoch(), Rules: v.Len(), Cache: v.CacheStats()}
		if be, ok := s.fleet.Backend(id); ok {
			sm.EventsDropped = be.EventDrops()
		}
		m.Switches = append(m.Switches, sm)
		if pol != nil {
			// Current membership counts; a populated group appears even
			// before its first round.
			g := pol.groupOf(id, s.tagsOf(id))
			gm := groups[g]
			gm.Group = g
			gm.Switches++
			groups[g] = gm
		}
	}
	for _, gm := range groups {
		m.Groups = append(m.Groups, gm)
	}
	sort.Slice(m.Groups, func(i, j int) bool { return m.Groups[i].Group < m.Groups[j].Group })
	return m
}
