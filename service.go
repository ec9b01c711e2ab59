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
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"context"

	"monocle/internal/header"
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
	// member switch route back to their owner (created on first use).
	groupMu    sync.Mutex
	proxyGroup *ProxyGroup

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

	mu        sync.Mutex
	lastSweep []ResultRecord
	// sweepBufs double-buffers the published result records: round N
	// fills the buffer round N-2 published, which round N-1 already
	// unpublished — so the fill (outside s.mu) never races a reader
	// copying s.lastSweep under s.mu, and steady-state rounds allocate
	// no record storage.
	sweepBufs   [2][]ResultRecord
	sweepBufIdx int
	// batchScratch holds SweepRound's per-run batch collation (probe
	// pointers, expectations); reused across rounds, guarded by sweepMu.
	batchProbes  []*Probe
	batchExpects []Expectation
	metrics      ServiceMetrics
	alertsByType map[string]uint64
	groupRounds  map[string]uint64
	groupStats   map[string]*GroupMetrics
	draining     bool
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

// RuleSpec is the JSON form of one rule in rule operations.
type RuleSpec struct {
	ID       uint64 `json:"id"`
	Priority int    `json:"priority"`
	// Match maps OpenFlow 1.0 field names (dl_type, nw_src, ...) to
	// values: decimal or 0x-hex integers, dotted quads, value/prefixlen
	// prefixes (nw_src/nw_dst style) and value&mask ternaries. A value or
	// mask wider than its field is an error.
	Match   map[string]string `json:"match,omitempty"`
	Actions []ActionSpec      `json:"actions,omitempty"`
}

// ActionSpec is the JSON form of one rule action: exactly one of Output,
// ECMP, or Set is used. An empty Actions list on a RuleSpec drops.
type ActionSpec struct {
	Output uint16        `json:"output,omitempty"`
	ECMP   []uint16      `json:"ecmp,omitempty"`
	Set    *SetFieldSpec `json:"set,omitempty"`
}

// SetFieldSpec is the JSON form of a set-field rewrite action.
type SetFieldSpec struct {
	Field string `json:"field"`
	Value uint64 `json:"value"`
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
		recorders:    make(map[uint32]*RecordBackend),
		alertsByType: make(map[string]uint64),
		tags:         make(map[uint32][]string),
		groupRounds:  make(map[string]uint64),
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

// persistRules snapshots switch id's expected table to the store.
func (s *Service) persistRules(id uint32, v *Verifier) {
	if s.store == nil {
		return
	}
	if err := s.store.SaveRules(id, v.Epoch(), ruleSpecs(v.Rules())); err != nil {
		s.noteStoreErr()
	}
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
	tags := make(map[uint32][]string, len(s.tags))
	for id, t := range s.tags {
		tags[id] = t
	}
	s.polMu.Unlock()

	for _, id := range s.switchIDs() {
		var ov *DiffOverrides
		confirm := s.set.detectionTimeout
		if p != nil {
			ov = p.overridesFor(id, tags[id])
			if c := p.confirmOf(id, tags[id]); c > 0 {
				confirm = c
			}
		}
		s.differ.SetOverrides(id, ov)
		if be, ok := s.fleet.Backend(id); ok {
			if ts, ok := UnwrapBackend(be).(interface{ SetObserveTimeout(time.Duration) }); ok {
				if confirm <= 0 {
					confirm = 2 * time.Second // NewProxyBackend's own default
				}
				ts.SetObserveTimeout(confirm)
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
		s.groupMu.Lock()
		if s.proxyGroup == nil {
			s.proxyGroup = NewProxyGroup()
		}
		group := s.proxyGroup
		s.groupMu.Unlock()
		// A policy "confirm within" deadline for this switch bounds the
		// proxy's Observe round trips from the first observation on.
		confirm := s.set.detectionTimeout
		if pol != nil {
			if c := pol.confirmOf(spec.ID, spec.Tags); c > 0 {
				confirm = c
			}
		}
		be = NewProxyBackend(ProxyConfig{
			SwitchID:       spec.ID,
			SwitchAddr:     spec.Address,
			Listen:         spec.Listen,
			ObserveTimeout: confirm,
			Group:          group,
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
	err := v.Install(rules...)
	s.persistRules(id, v)
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
			p, genErr = v.Add(r)
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
			p, genErr = v.Modify(op.ID, actions)
			if genErr != nil && !unprobeable(genErr) {
				return UpdateReply{}, genErr
			}
		}
	case "delete":
		ruleID = op.ID
		expect = ExpectAbsent
		pre := preImage(op.ID)
		if expected {
			p, genErr = v.Delete(op.ID)
			if genErr != nil && !unprobeable(genErr) {
				return UpdateReply{}, genErr
			}
		}
		if dataplane {
			if err := be.Apply(BackendOp{Op: "delete", ID: op.ID, Rule: pre}); err != nil {
				return UpdateReply{}, err
			}
		}
	default:
		return UpdateReply{}, fmt.Errorf("monocle: unknown op %q", op.Op)
	}
	if expected {
		// The expected-table mutation committed: snapshot it before the
		// confirmation probe round trip, so a crash during observation
		// still restarts with the post-mutation table.
		s.persistRules(id, v)
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

// roundPlan pairs one switch's compiled ProbePlan with the table epoch
// it was compiled against (the frozen-entry folds of unsampled rules
// need an epoch even when the switch contributed no sweep events).
type roundPlan struct {
	plan  ProbePlan
	epoch uint64
}

// compilePlans compiles the active policy against the live fleet: one
// plan per member switch whose group is named in groups (empty = every
// group), at each group's current round counter. It also returns the
// round's scope: those switches plus every remembered one (see track)
// whose group is named. A nil policy is one implicit group holding every
// switch, planned as whole-table (nil) subsets with no per-rule work.
// Plans are deterministic — a pure function of (policy, switch, installed
// rules, group round).
func (s *Service) compilePlans(pol *Policy, groups []string) ([]roundPlan, []uint32) {
	var filter map[string]bool
	if pol != nil && len(groups) > 0 {
		filter = make(map[string]bool, len(groups))
		for _, g := range groups {
			filter[g] = true
		}
	}
	s.mu.Lock()
	rounds := make(map[string]uint64, len(s.groupRounds))
	for g, n := range s.groupRounds {
		rounds[g] = n
	}
	s.mu.Unlock()
	var (
		plans []roundPlan
		scope []uint32
	)
	for _, id := range s.switchIDs() {
		tags := s.tagsOf(id)
		group := pol.groupOf(id, tags)
		if filter != nil && !filter[group] {
			continue
		}
		scope = append(scope, id)
		v, ok := s.fleet.Verifier(id)
		if !ok {
			continue // remembered: in scope, nothing to sweep
		}
		rp := roundPlan{plan: ProbePlan{Switch: id, Group: group}, epoch: v.Epoch()}
		if pol != nil {
			rp.plan = pol.Plan(id, tags, v.Rules(), rounds[group])
		}
		plans = append(plans, rp)
	}
	return plans, scope
}

// switchIDs returns every switch a round can scope: the fleet members in
// registration order, then the remembered switches (tracked but not
// members) in id order.
func (s *Service) switchIDs() []uint32 {
	ids := s.fleet.Switches()
	var lost []uint32
	s.polMu.Lock()
	for id := range s.tags {
		if _, ok := s.fleet.Verifier(id); !ok {
			lost = append(lost, id)
		}
	}
	s.polMu.Unlock()
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return append(ids, lost...)
}

// ProbePlans compiles the active policy against the live fleet at each
// group's next round counter and returns the per-switch plans — exactly
// what the next SweepRound will probe. Nil without a policy.
func (s *Service) ProbePlans() []ProbePlan {
	pol := s.Policy()
	if pol == nil {
		return nil
	}
	rps, _ := s.compilePlans(pol, nil)
	out := make([]ProbePlan, len(rps))
	for i, rp := range rps {
		out[i] = rp.plan
	}
	return out
}

// SweepRound runs one sweep round, judges every generated probe against
// its switch's data plane through the Backend seam, feeds the diff
// engine, finalizes the round, delivers the round's alerts to the
// attached sinks, and returns them. Run calls this on the per-group
// cadences; tests and externally-paced deployments call it directly (or
// through POST /sweep).
//
// The round compiles each switch's probe plan, sweeps the planned rules
// in one Fleet.SweepPlan call, and finalizes the round's scope in one
// Differ.EndSweepScoped call. Without a policy the plan is one implicit
// group: every switch, whole tables. With one, groups names the policy
// groups to include (none = every group). Cancelling ctx aborts the
// round: the partial fold is discarded (no false failing-rule streaks
// from unprocessed rules), the round is not counted, and nil is
// returned.
func (s *Service) SweepRound(ctx context.Context, groups ...string) []Alert {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	start := time.Now()
	// Driver lifecycle events queued since the last round fold first, so a
	// reconnect cycle lands in the same round as the sweep that follows it.
	s.drainBackendEvents()

	plans, scope := s.compilePlans(s.Policy(), groups)
	sel := make(map[uint32][]uint64, len(plans))
	for _, rp := range plans {
		sel[rp.plan.Switch] = rp.plan.Rules
	}
	evs := s.fleet.SweepPlan(ctx, sel)

	// abort discards a cancelled round: folding its partial results would
	// turn every unprocessed rule into a false failing streak, so the
	// diff engine drops the partial fold and the round is not counted.
	abort := func() []Alert {
		s.differ.AbortSweep()
		return nil
	}
	if ctx.Err() != nil {
		return abort()
	}

	// Sweep events arrive contiguous per switch (Fleet concatenates
	// per-member slices), so each run becomes one ObserveBatch call — one
	// event-loop post and a pipelined in-flight window on a ProxyBackend
	// instead of len(run) serialized round trips. Verdicts fold in the
	// original event order. The record slice and batch collation scratch
	// are pooled (see sweepBufs).
	recs := s.sweepBufs[s.sweepBufIdx][:0]
	if cap(recs) < len(evs) {
		recs = make([]ResultRecord, 0, len(evs))
	}
	s.sweepBufs[s.sweepBufIdx] = recs
	for lo := 0; lo < len(evs); {
		if ctx.Err() != nil {
			return abort()
		}
		hi := lo + 1
		for hi < len(evs) && evs[hi].SwitchID == evs[lo].SwitchID {
			hi++
		}
		be, hasBE := s.fleet.Backend(evs[lo].SwitchID)
		s.batchProbes, s.batchExpects = s.batchProbes[:0], s.batchExpects[:0]
		if hasBE {
			for i := lo; i < hi; i++ {
				if evs[i].Result.Probe != nil {
					s.batchProbes = append(s.batchProbes, evs[i].Result.Probe)
					s.batchExpects = append(s.batchExpects, ExpectPresent)
				}
			}
		}
		var (
			verdicts []Verdict
			obsErrs  []error
		)
		if len(s.batchProbes) > 0 {
			verdicts, obsErrs = be.ObserveBatch(ctx, s.batchProbes, s.batchExpects)
		}
		j := 0
		for i := lo; i < hi; i++ {
			ev := evs[i]
			if hasBE && ev.Result.Probe != nil {
				verdict, err := verdicts[j], obsErrs[j]
				j++
				var div *DivergenceError
				switch {
				case err == nil:
					s.differ.ObserveVerdict(ev, verdict)
				case errors.As(err, &div):
					// A replayed session departed from its recording: the
					// loudest possible judgement, never a quiet skip — a
					// silent divergence would defeat the whole point of
					// deterministic replay.
					s.differ.ObserveVerdict(ev, VerdictUnexpected)
				case errors.Is(err, ErrBackendDisconnected), errors.Is(err, ErrBackendClosed):
					// The backend is down: record presence without judging.
					// Folding unjudged would mark the rule recovered the
					// moment the transport died (a false all-clear mid-
					// outage); dropping the event entirely would make a
					// mid-sweep flap look like the unswept rules left the
					// table, forgetting their outstanding alerts. A skipped
					// observation does neither — and a full-outage round
					// still counts as missed, so a persistent outage
					// surfaces as switch_stalled.
					s.differ.ObserveSkipped(ev)
				default:
					// The probe was never observed (cancelled round): fold
					// the generation result unjudged rather than manufacture
					// a failing verdict — a drain must not page anyone.
					s.differ.Observe(ev)
				}
			} else {
				s.differ.Observe(ev)
			}
			recs = append(recs, ev.Record())
		}
		lo = hi
	}

	// Matched-but-unsampled rules fold as frozen entries: still tracked
	// (their absence from the sweep must not read as "left the table"),
	// never alerted on, streaks and epochs kept.
	var epochs map[uint32]uint64
	for _, rp := range plans {
		if len(rp.plan.Unsampled) == 0 {
			continue
		}
		if epochs == nil {
			epochs = make(map[uint32]uint64, len(plans))
			for _, ev := range evs {
				epochs[ev.SwitchID] = ev.Epoch
			}
		}
		epoch, ok := epochs[rp.plan.Switch]
		if !ok {
			epoch = rp.epoch
		}
		for _, rid := range rp.plan.Unsampled {
			s.differ.ObserveUnsampled(rp.plan.Switch, epoch, rid)
		}
	}
	if ctx.Err() != nil {
		return abort()
	}

	// Only the swept groups' switches participate in this round: unswept
	// groups accrue neither missed-round streaks nor rule-left-table
	// inferences from a round that never probed them.
	alerts := s.differ.EndSweepScoped(scope)

	// WAL ordering: persist the round (fold state + alerts) before any
	// sink sees the alerts. A crash between the two re-delivers on the
	// next life; the reverse order would lose alerts the operator saw.
	var storeErrs uint64
	if s.store != nil {
		if err := s.store.SaveRound(s.differ.State(), alerts); err != nil {
			storeErrs++
		}
	}

	var sinkErrs uint64
	if len(alerts) > 0 {
		for _, sink := range s.sinks {
			if err := sink.Deliver(ctx, alerts); err != nil {
				sinkErrs++
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepBufs[s.sweepBufIdx] = recs
	s.sweepBufIdx = 1 - s.sweepBufIdx
	s.lastSweep = recs
	s.metrics.Rounds++
	s.liveRounds++
	s.metrics.RulesSwept += uint64(len(recs))
	s.metrics.AlertsTotal += uint64(len(alerts))
	s.metrics.SinkErrors += sinkErrs
	s.metrics.StoreErrors += storeErrs
	for _, a := range alerts {
		s.alertsByType[a.Type.String()]++
	}
	s.metrics.LastRoundRules = len(recs)
	s.metrics.LastRoundMicros = time.Since(start).Microseconds()
	if len(recs) > 0 {
		s.metrics.LastRoundMicrosPerRule = float64(s.metrics.LastRoundMicros) / float64(len(recs))
	} else {
		s.metrics.LastRoundMicrosPerRule = 0
	}
	s.noteGroupRound(plans, recs)
	// Mark the completed round on every session trace and flush: a crash
	// loses at most the round in flight, and cmd/monotrace re-drives one
	// SweepRound per round mark.
	s.recMu.Lock()
	for _, rb := range s.recorders {
		rb.MarkRound(s.metrics.Rounds)
		rb.Flush()
	}
	s.recMu.Unlock()
	return alerts
}

// noteGroupRound attributes one round's results to the policy groups
// that swept and advances their round counters (the sampling sequence
// index the next plan compilation uses). The implicit no-policy group ""
// keeps no stats. Callers hold s.mu.
func (s *Service) noteGroupRound(plans []roundPlan, recs []ResultRecord) {
	var bySwitch map[uint32]string
	groupRules := make(map[string]int)
	for _, rp := range plans {
		if rp.plan.Group == "" {
			continue
		}
		if bySwitch == nil {
			bySwitch = make(map[uint32]string, len(plans))
		}
		bySwitch[rp.plan.Switch] = rp.plan.Group
		if _, ok := groupRules[rp.plan.Group]; !ok {
			groupRules[rp.plan.Group] = 0 // a group with no results still counts its round
		}
	}
	if bySwitch == nil {
		return
	}
	for i := range recs {
		groupRules[bySwitch[recs[i].Switch]]++
	}
	for g, n := range groupRules {
		gs := s.groupStats[g]
		if gs == nil {
			gs = &GroupMetrics{Group: g}
			s.groupStats[g] = gs
		}
		gs.Rounds++
		gs.RulesCovered += uint64(n)
		gs.LastRoundRules = n
		gs.LastRoundMicros = s.metrics.LastRoundMicros
		if n > 0 {
			gs.LastRoundMicrosPerRule = float64(gs.LastRoundMicros) / float64(n)
		} else {
			gs.LastRoundMicrosPerRule = 0
		}
		s.groupRounds[g]++
	}
}

// groupEntry is one scheduled policy group in Run's cadence heap.
type groupEntry struct {
	name  string // "" is the no-policy catch-all sweeping everything
	every time.Duration
	due   time.Time
}

// groupHeap orders entries by due time, ties broken by name so the
// schedule is deterministic.
type groupHeap []*groupEntry

func (h groupHeap) Len() int { return len(h) }
func (h groupHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].name < h[j].name
}
func (h groupHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x any)   { *h = append(*h, x.(*groupEntry)) }
func (h *groupHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// buildSchedule computes Run's sweep schedule: one entry per populated
// group at the group's declared cadence (the service interval when it
// declares none; without a policy, the one implicit group), or a single
// catch-all entry at the service interval when no switch is known.
// Groups surviving a rebuild keep their due times; new groups are due
// immediately — installing a policy mid-run starts its cadences at once.
func (s *Service) buildSchedule(prev *groupHeap, now time.Time) *groupHeap {
	prevDue := make(map[string]time.Time)
	if prev != nil {
		for _, e := range *prev {
			prevDue[e.name] = e.due
		}
	}
	h := &groupHeap{}
	add := func(name string, every time.Duration) {
		if every <= 0 {
			every = s.set.steadyInterval
		}
		due, ok := prevDue[name]
		if !ok {
			due = now
		}
		heap.Push(h, &groupEntry{name: name, every: every, due: due})
	}
	pol := s.Policy()
	seen := make(map[string]bool)
	for _, id := range s.switchIDs() {
		g := pol.groupOf(id, s.tagsOf(id))
		if seen[g] {
			continue
		}
		seen[g] = true
		add(g, pol.everyOf(g))
	}
	if h.Len() == 0 {
		add("", 0)
	}
	return h
}

// Run drives steady-state sweep rounds until the context is cancelled.
// Without a policy every round sweeps everything on WithSteadyInterval;
// with one, each policy group sweeps at its own cadence (a min-heap of
// next-due groups), rebuilt whenever the policy is swapped or a switch
// registers. Cancellation aborts an in-flight round cleanly — the
// partial fold is discarded rather than turned into false alerts — then
// the service is marked draining for /healthz and the context's error is
// returned.
func (s *Service) Run(ctx context.Context) error {
	// A previous Run marked the service draining on its way out; a new
	// Run is the restart-lifecycle moment to clear it, or /healthz
	// reports a healthy, sweeping service as draining forever.
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
	drain := func() error {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		return ctx.Err()
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var (
		sched *groupHeap
		ver   uint64
	)
	for {
		if v := s.planVersion(); sched == nil || v != ver {
			sched = s.buildSchedule(sched, time.Now())
			ver = v
		}
		next := (*sched)[0]
		timer.Reset(time.Until(next.due))
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return drain()
		case <-timer.C:
		}
		s.SweepRound(ctx, sweepArgs(next.name)...)
		if ctx.Err() != nil {
			return drain()
		}
		next.due = next.due.Add(next.every)
		if !next.due.After(time.Now()) {
			// The round overran its cadence: rebase instead of sweeping a
			// burst of make-up rounds.
			next.due = time.Now().Add(next.every)
		}
		heap.Fix(sched, 0)
	}
}

// sweepArgs turns a schedule entry name into SweepRound's group list
// (the catch-all entry sweeps every group).
func sweepArgs(name string) []string {
	if name == "" {
		return nil
	}
	return []string{name}
}

// Alerts returns a snapshot of the alert ring (oldest first).
func (s *Service) Alerts() []Alert { return s.ring.Alerts() }

// LastSweep returns the most recent round's per-rule records.
func (s *Service) LastSweep() []ResultRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ResultRecord(nil), s.lastSweep...)
}

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
	for _, id := range s.fleet.Switches() {
		v, ok := s.fleet.Verifier(id)
		if !ok {
			continue
		}
		m.Switches = append(m.Switches, s.switchMetrics(id, v))
	}
	if pol := s.Policy(); pol != nil {
		// Current membership counts; a populated group appears even
		// before its first round.
		for _, id := range s.fleet.Switches() {
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

// switchMetrics builds one switch's metrics slice, including its driver's
// event drop count.
func (s *Service) switchMetrics(id uint32, v *Verifier) SwitchMetrics {
	sm := SwitchMetrics{Switch: id, Epoch: v.Epoch(), Rules: v.Len(), Cache: v.CacheStats()}
	if be, ok := s.fleet.Backend(id); ok {
		sm.EventsDropped = be.EventDrops()
	}
	return sm
}

// Handler returns the monocled HTTP control surface:
//
//	POST /switches            add a switch (SwitchSpec)
//	GET  /switches            list switches with epochs and rule counts
//	POST /switches/{id}/rules apply a RuleOp, returns UpdateReply
//	POST /sweep               run one sweep round now (?group= limits it
//	                          to named policy groups), returns its alerts
//	GET  /policy              active policy source text (404 when none)
//	PUT  /policy              validate-then-swap the monitoring policy
//	                          (422 with line/column on a parse error,
//	                          leaving the running plan untouched; an
//	                          empty body clears the policy)
//	GET  /sweeps              last round's ResultRecords, one JSON line each
//	GET  /alerts              retained alerts, one JSON line each
//	GET  /healthz             combined liveness/readiness/drain view
//	GET  /livez               liveness only: 200 while the process serves
//	GET  /readyz              readiness: 200 only after Resume finished
//	                          and the first round of this life completed
//	                          (503 with the blocking state otherwise) — a
//	                          cluster coordinator routes on this, never
//	                          on /livez, so a replica still replaying its
//	                          WAL receives no traffic
//	GET  /metrics             ServiceMetrics (JSON; Prometheus text with
//	                          Accept: text/plain)
func (s *Service) Handler() http.Handler { return mountRoutes(s) }

// routeHandlers is the HTTP surface a Service and a Coordinator both
// serve, one method per route: a route added to mountRoutes does not
// compile until both implement it.
type routeHandlers interface {
	handleAddSwitch(http.ResponseWriter, *http.Request)
	handleListSwitches(http.ResponseWriter, *http.Request)
	handleRules(http.ResponseWriter, *http.Request)
	handleSweep(http.ResponseWriter, *http.Request)
	handleGetPolicy(http.ResponseWriter, *http.Request)
	handlePutPolicy(http.ResponseWriter, *http.Request)
	handleSweeps(http.ResponseWriter, *http.Request)
	handleAlerts(http.ResponseWriter, *http.Request)
	handleHealthz(http.ResponseWriter, *http.Request)
	handleReadyz(http.ResponseWriter, *http.Request)
	handleMetrics(http.ResponseWriter, *http.Request)
}

// mountRoutes returns a mux serving the shared route table on h.
func mountRoutes(h routeHandlers) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /switches", h.handleAddSwitch)
	mux.HandleFunc("GET /switches", h.handleListSwitches)
	mux.HandleFunc("POST /switches/{id}/rules", h.handleRules)
	mux.HandleFunc("POST /sweep", h.handleSweep)
	mux.HandleFunc("GET /policy", h.handleGetPolicy)
	mux.HandleFunc("PUT /policy", h.handlePutPolicy)
	mux.HandleFunc("GET /sweeps", h.handleSweeps)
	mux.HandleFunc("GET /alerts", h.handleAlerts)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /livez", handleLivez)
	mux.HandleFunc("GET /readyz", h.handleReadyz)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	return mux
}

func (s *Service) handleAddSwitch(w http.ResponseWriter, r *http.Request) {
	var spec SwitchSpec
	if !decodeJSONBody(w, r, &spec) {
		return
	}
	if _, err := s.AddSwitch(spec); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateSwitch) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"switch": spec.ID})
}

func (s *Service) handleListSwitches(w http.ResponseWriter, _ *http.Request) {
	var out []SwitchMetrics
	for _, id := range s.fleet.Switches() {
		if v, ok := s.fleet.Verifier(id); ok {
			out = append(out, s.switchMetrics(id, v))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleRules(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad switch id: %w", err))
		return
	}
	var op RuleOp
	if !decodeJSONBody(w, r, &op) {
		return
	}
	reply, err := s.applyRule(r.Context(), uint32(id64), op)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, ErrDuplicateID), errors.Is(err, ErrSamePriorityOverlap):
			status = http.StatusConflict
		case errors.Is(err, ErrBackendDisconnected):
			// Transient: the proxy driver is redialing its switch with
			// backoff; the client should retry after backend_reconnected.
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Deliberately not the request context: a client disconnect mid-sweep
	// would abort the round, and an operator-requested sweep should
	// complete once started.
	alerts := s.SweepRound(context.Background(), r.URL.Query()["group"]...)
	s.mu.Lock()
	round := s.metrics.Rounds
	rules := s.metrics.LastRoundRules
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"round": round, "rules": rules, "alerts": alerts,
	})
}

func (s *Service) handleGetPolicy(w http.ResponseWriter, _ *http.Request) {
	pol := s.Policy()
	if pol == nil {
		httpError(w, http.StatusNotFound, errors.New("no active policy"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(pol.Source()))
}

// handlePutPolicy validates, then swaps: a body that does not parse is
// rejected with 422 Unprocessable Entity carrying the offending source
// line and column, and the running plan stays untouched. An empty body
// clears the active policy.
func (s *Service) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if strings.TrimSpace(string(body)) == "" {
		s.SetPolicy(nil)
		writeJSON(w, http.StatusOK, map[string]any{"policy": nil})
		return
	}
	p, err := ParsePolicy(string(body))
	if err != nil {
		writePolicyError(w, err)
		return
	}
	s.SetPolicy(p)
	assignments := make(map[string][]uint32)
	for _, id := range s.fleet.Switches() {
		g := p.groupOf(id, s.tagsOf(id))
		assignments[g] = append(assignments[g], id)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"groups":      p.GroupNames(),
		"assignments": assignments,
	})
}

func (s *Service) handleSweeps(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := append([]ResultRecord(nil), s.lastSweep...)
	s.mu.Unlock()
	writeJSONLines(w, recs)
}

func (s *Service) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSONLines(w, s.Alerts())
}

// healthState is one consistent snapshot of the liveness/readiness axes.
type healthState struct {
	draining   bool
	resuming   bool
	rounds     uint64
	liveRounds uint64
}

func (s *Service) healthState() healthState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return healthState{
		draining:   s.draining,
		resuming:   s.resuming,
		rounds:     s.metrics.Rounds,
		liveRounds: s.liveRounds,
	}
}

// ready reports whether the service should receive routed traffic: the
// WAL replay (Resume) has finished, at least one sweep round of this
// process life has completed, and the service is not draining.
func (h healthState) ready() bool {
	return !h.resuming && !h.draining && h.liveRounds > 0
}

// Ready reports the service's readiness (the GET /readyz state): Resume
// is not in flight, the first sweep round of this process life has
// completed, and the service is not draining.
func (s *Service) Ready() bool { return s.healthState().ready() }

// handleHealthz is the combined health view (kept for operators and
// backward compatibility; orchestrators should probe /livez and /readyz).
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.healthState()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"ready":    h.ready(),
		"draining": h.draining,
		"resuming": h.resuming,
		"switches": s.fleet.Size(),
		"rounds":   h.rounds,
	})
}

// handleLivez reports process liveness only: if this handler runs at all,
// the process is alive — restarts are for the orchestrator to decide on
// timeouts, not on body content. A monocled and a coordinator share it.
func handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz reports routability: 200 only once Resume has completed
// and the first sweep round of this life has finished (503 otherwise,
// with the blocking state in the body). A restarted replica behind a
// cluster coordinator therefore serves no routed traffic until its WAL
// replay is done and its diff engine has re-proven the fleet once.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.healthState()
	status := http.StatusOK
	if !h.ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    h.ready(),
		"resuming": h.resuming,
		"draining": h.draining,
		"rounds":   h.rounds,
		"switches": s.fleet.Size(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// wantsPrometheus reports whether the Accept header asks for the
// Prometheus text exposition format. JSON stays the default; scrapers
// sending text/plain or OpenMetrics media types get the text format.
func wantsPrometheus(accept string) bool {
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePrometheus renders the service counters in the Prometheus text
// exposition format: sweep-round totals, alert counts by type, the last
// round's per-rule cost, per-group counters under a policy, and
// per-switch epoch/rule/cache gauges.
func (s *Service) writePrometheus(w http.ResponseWriter) {
	m := s.Metrics()
	var p promWriter
	p.metric("monocle_sweep_rounds_total", "counter", "Completed sweep rounds.", m.Rounds)
	p.metric("monocle_rules_swept_total", "counter", "Per-rule results across all rounds.", m.RulesSwept)
	p.metric("monocle_sink_errors_total", "counter", "Failed alert-sink deliveries.", m.SinkErrors)
	p.metric("monocle_store_errors_total", "counter", "Failed persistence-store writes.", m.StoreErrors)
	p.metric("monocle_policy_errors_total", "counter", "Rejected monitoring-policy loads.", m.PolicyErrors)

	p.family("monocle_alerts_total", "counter", "Alerts raised, by type.")
	for t := AlertRuleFailing; t <= AlertBackendFlapping; t++ {
		p.sample("monocle_alerts_total", m.AlertsByType[t.String()], "type", t.String())
	}

	p.metric("monocle_last_round_rules", "gauge", "Result count of the most recent round.", m.LastRoundRules)
	p.metric("monocle_last_round_us_per_rule", "gauge", "Per-rule cost of the most recent round in microseconds.", m.LastRoundMicrosPerRule)

	if len(m.Groups) > 0 {
		perGroup := func(name, kind, help string, value func(GroupMetrics) any) {
			p.family(name, kind, help)
			for _, g := range m.Groups {
				p.sample(name, value(g), "group", g.Group)
			}
		}
		perGroup("monocle_group_switches", "gauge", "Fleet members per policy group.",
			func(g GroupMetrics) any { return g.Switches })
		perGroup("monocle_group_rounds_total", "counter", "Completed sweep rounds per policy group.",
			func(g GroupMetrics) any { return g.Rounds })
		perGroup("monocle_group_rules_covered_total", "counter", "Per-rule results per policy group across all rounds.",
			func(g GroupMetrics) any { return g.RulesCovered })
		perGroup("monocle_group_last_round_us_per_rule", "gauge", "Per-rule cost of the group's most recent round in microseconds.",
			func(g GroupMetrics) any { return g.LastRoundMicrosPerRule })
	}

	sortSwitches(m.Switches)
	perSwitch := func(name, kind, help string, value func(SwitchMetrics) any) {
		p.family(name, kind, help)
		for _, sw := range m.Switches {
			p.sample(name, value(sw), "switch", strconv.FormatUint(uint64(sw.Switch), 10))
		}
	}
	perSwitch("monocle_switch_epoch", "gauge", "Table-change epoch per switch.",
		func(sw SwitchMetrics) any { return sw.Epoch })
	perSwitch("monocle_switch_rules", "gauge", "Installed rules per switch.",
		func(sw SwitchMetrics) any { return sw.Rules })
	perSwitch("monocle_switch_cache_hits_total", "counter", "Session-cache hits per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Hits })
	perSwitch("monocle_switch_cache_syncs_total", "counter", "Session-cache epoch syncs per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Syncs })
	perSwitch("monocle_switch_cache_delta_rules_total", "counter", "Incrementally recompiled rules per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.DeltaRules })
	perSwitch("monocle_switch_cache_rebuilds_total", "counter", "Full library rebuilds per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Rebuilds })
	perSwitch("monocle_backend_events_dropped_total", "counter", "Driver lifecycle events dropped from the backend event stream per switch.",
		func(sw SwitchMetrics) any { return sw.EventsDropped })
	p.send(w)
}

// sortSwitches orders per-switch metrics by ascending switch id.
func sortSwitches(sws []SwitchMetrics) {
	sort.Slice(sws, func(i, j int) bool { return sws[i].Switch < sws[j].Switch })
}

// promWriter accumulates the Prometheus text exposition format (version
// 0.0.4) for a monocled's and a coordinator's GET /metrics: metric
// families, each a # HELP/# TYPE header followed by its samples.
type promWriter struct{ strings.Builder }

// family writes the header of metric family name; kind is its TYPE.
func (p *promWriter) family(name, kind, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// sample writes one sample of family name. labels alternate label names
// and values; v is formatted with %v (decimal integers, shortest floats).
func (p *promWriter) sample(name string, v any, labels ...string) {
	p.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		p.WriteString(sep + labels[i] + "=" + strconv.Quote(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		p.WriteByte('}')
	}
	fmt.Fprintf(p, " %v\n", v)
}

// metric writes a family holding a single unlabelled sample.
func (p *promWriter) metric(name, kind, help string, v any) {
	p.family(name, kind, help)
	p.sample(name, v)
}

// send writes the accumulated text as the response.
func (p *promWriter) send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.String())
}

// maxBodyBytes caps every request body the HTTP surfaces read.
const maxBodyBytes = 1 << 20

// decodeJSONBody decodes the request's JSON body into v under the
// maxBodyBytes cap. It answers 413 for an oversized body and 400 for any
// other decode error, and reports whether v was decoded.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyOK(w, json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v))
}

// readBody reads the whole request body under the same cap, answering a
// failure like decodeJSONBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return body, bodyOK(w, err)
}

// bodyOK reports whether reading a request body succeeded, answering 413
// (oversized) or 400 (anything else) when it did not.
func bodyOK(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
	return false
}

// writePolicyError answers a policy that does not parse: 422 carrying the
// offending source line and column.
func writePolicyError(w http.ResponseWriter, err error) {
	var perr *PolicyError
	if errors.As(err, &perr) {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": perr.Error(), "line": perr.Line, "column": perr.Col,
		})
		return
	}
	httpError(w, http.StatusUnprocessableEntity, err)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON writes one JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONLines writes items as JSON lines (ndjson).
func writeJSONLines[T any](w http.ResponseWriter, items []T) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, it := range items {
		if enc.Encode(it) != nil {
			return
		}
	}
}

// Rule builds and validates the flow rule a RuleSpec describes.
func (rs *RuleSpec) Rule() (*Rule, error) {
	m := MatchAll()
	for name, val := range rs.Match {
		f, ok := header.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("monocle: unknown match field %q", name)
		}
		t, err := parseTernary(f, val)
		if err != nil {
			return nil, err
		}
		m = m.With(f, t)
	}
	actions, err := actionList(rs.Actions)
	if err != nil {
		return nil, err
	}
	r := &Rule{ID: rs.ID, Priority: rs.Priority, Match: m, Actions: actions}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// actionList builds a rule action list from specs.
func actionList(specs []ActionSpec) ([]Action, error) {
	var out []Action
	for _, a := range specs {
		switch {
		case a.Set != nil:
			f, ok := header.FieldByName(a.Set.Field)
			if !ok {
				return nil, fmt.Errorf("monocle: unknown set field %q", a.Set.Field)
			}
			out = append(out, SetField(f, a.Set.Value))
		case len(a.ECMP) > 0:
			ports := make([]PortID, len(a.ECMP))
			for i, p := range a.ECMP {
				ports[i] = PortID(p)
			}
			out = append(out, ECMP(ports...))
		case a.Output != 0:
			out = append(out, Output(PortID(a.Output)))
		default:
			return nil, fmt.Errorf("monocle: action needs output, ecmp, or set")
		}
	}
	return out, nil
}

// cloneActions copies an action list so the expected and actual tables
// never share Action slices.
func cloneActions(actions []Action) []Action {
	out := make([]Action, len(actions))
	copy(out, actions)
	for i := range out {
		if len(out[i].Ports) > 0 {
			out[i].Ports = append([]PortID(nil), out[i].Ports...)
		}
	}
	return out
}

// parseTernary parses one match value: "5", "0x800", "10.0.0.0",
// "10.0.0.0/8", "value/prefixlen", or "value&mask" (an arbitrary ternary
// mask — the persisted form of matches that are neither exact nor
// prefix). Values and masks follow header.ParseValue: wider than the
// field is an error, never truncated.
func parseTernary(f FieldID, s string) (Ternary, error) {
	if valPart, maskPart, hasMask := strings.Cut(s, "&"); hasMask {
		v, err := header.ParseValue(f, valPart)
		if err != nil {
			return Ternary{}, fmt.Errorf("monocle: field %s: %w", f, err)
		}
		m, err := header.ParseValue(f, maskPart)
		if err != nil {
			return Ternary{}, fmt.Errorf("monocle: field %s: bad mask: %w", f, err)
		}
		return Ternary{Value: v & m, Mask: m}, nil
	}
	valPart, plenPart, hasPlen := strings.Cut(s, "/")
	v, err := header.ParseValue(f, valPart)
	if err != nil {
		return Ternary{}, fmt.Errorf("monocle: field %s: %w", f, err)
	}
	if !hasPlen {
		return Exact(f, v), nil
	}
	plen, err := strconv.Atoi(plenPart)
	if err != nil || plen < 0 || plen > FieldWidth(f) {
		return Ternary{}, fmt.Errorf("monocle: field %s: bad prefix length %q", f, plenPart)
	}
	return Prefix(f, v, plen), nil
}
