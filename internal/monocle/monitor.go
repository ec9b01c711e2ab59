// Package monocle implements the Monocle proxy itself (§2, §4, §7): a
// per-switch Monitor that sits between an SDN controller and one switch,
// tracks the expected flow table from the FlowMods it forwards, verifies
// the data plane with generated probes, and a Multiplexer that routes
// caught probes back to the Monitor that owns them.
//
// The Monitor is a pure event-driven state machine over a sim.Sim clock:
// transport adapters (the in-process simulator harness, or the real TCP
// proxy in cmd/monocle) deliver controller/switch messages and the Monitor
// emits messages through callbacks. It never blocks and owns no goroutines.
package monocle

import (
	"fmt"
	"time"

	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/openflow"
	"monocle/internal/probe"
	"monocle/internal/sim"
)

// Config parameterizes one Monitor. The paper fixes the rest of the
// Monitor's parameters, so they are package constants rather than fields:
// the probe tag rides in probe.TagField (dl_vlan, strategy 1, §6); a
// dynamic probe waits genDelay for generation (Table 2, §8.2); every
// observation re-sends its probe until it settles (§4.1, §8.1.1), never
// while a copy is in flight (unanswered and younger than its RTO,
// observation rule 3); pending updates share dynamicProbeRate
// PacketOuts per second (§8.4); postponed drops are marked dropValue in
// dropField (§4.3).
type Config struct {
	// SwitchID is the network-wide unique identifier of the monitored
	// switch, used to route caught probes back to this Monitor.
	SwitchID uint32
	// TagValue is the reserved probe-field value S_i this switch stamps
	// on its probes. With the vertex-coloring optimization of §6 this is
	// the switch's color; zero means "use SwitchID". A value outside
	// 1–4094 cannot be carried by dl_vlan, so every probe generation
	// fails (the facade refuses such tags at registration).
	TagValue uint32
	// PortPeer maps each switch port to the switch ID of the neighbour
	// reachable over it (the downstream catcher), or to HostPeer for
	// edge ports (probes exiting there are lost, §3.5).
	PortPeer map[flowtable.PortID]uint32
	// Ports lists the switch's usable ports (the in_port domain).
	Ports []flowtable.PortID

	// ProbeRate caps steady-state probing (probes/second); 500/s in the
	// paper's experiments.
	ProbeRate float64
	// AlarmTimeout is the window of one steady-state attempt: a rule
	// still unconfirmed when it closes (up to one RTO later, observeFor)
	// raises an alarm; 150 ms in the paper.
	AlarmTimeout time.Duration

	// DropPostpone enables the §4.3 reliable drop-rule installation:
	// drop rules are installed as "mark with dropValue in dropField and
	// forward to DropNeighborPort", confirmed positively, then
	// rewritten into real drops.
	DropPostpone bool
	// DropNeighborPort is where postponed-drop traffic is diverted.
	DropNeighborPort flowtable.PortID

	// Counting enables the multicast/ECMP probe-counting exception.
	Counting bool

	// OnAlarm fires when steady-state monitoring concludes a rule is
	// misbehaving in the data plane.
	OnAlarm func(ruleID uint64, at sim.Time)
	// OnRuleConfirmed fires when a dynamic update (add/modify/delete)
	// is verified to have reached the data plane.
	OnRuleConfirmed func(ruleID uint64, at sim.Time)
}

// The paper's fixed Monitor parameters (see Config).
const (
	// genDelay models the probe-generation latency charged on the
	// virtual clock before a dynamic probe is first injected (Table 2
	// measures 1.5–4 ms per probe on real rule sets).
	genDelay = 2 * time.Millisecond
	// minRTO floors the retransmission timeout (rttEstimator) and is the
	// first gap between a bounded observation's copy slots, whose later
	// gaps double (6, 12, 24 ms, ...).
	minRTO = 3 * time.Millisecond
	// dynamicProbeRate caps the aggregate dynamic-probe PacketOut rate
	// (probes/s); pending updates share it round-robin so bursts of
	// updates do not crowd FlowMods out of the control channel (§8.4).
	dynamicProbeRate = 1000
	// dropField/dropValue mark to-be-dropped traffic during drop
	// postponement; neighbours hold a pre-installed rule dropping marked
	// traffic (§4.3).
	dropField = header.IPTos
	dropValue = 0xfc
)

// HostPeer marks a port that leads out of the monitored core (no catcher).
const HostPeer uint32 = 0xffffffff

// DefaultConfig returns the paper's experiment parameters.
func DefaultConfig(switchID uint32) Config {
	return Config{
		SwitchID:     switchID,
		ProbeRate:    500,
		AlarmTimeout: 150 * time.Millisecond,
	}
}

// Verdict names which of a probe's outcomes an observation showed. It is
// evidence-relative; the root monocle package's Verdict documents the
// definition, and Classify is the one function that computes it.
type Verdict int

const (
	// VerdictConfirmed: the observation shows the Present outcome.
	VerdictConfirmed Verdict = iota
	// VerdictAbsent: the observation shows the Absent outcome.
	VerdictAbsent
	// VerdictUnexpected: the observation shows neither outcome.
	VerdictUnexpected
)

// Classify maps whether an observation matches a probe's Present and
// Absent outcomes to its verdict. It is the one judge: the Monitor's
// catches and silence, the root package's Judge and EvaluateProbe all
// classify through it.
func Classify(matchesPresent, matchesAbsent bool) Verdict {
	switch {
	case matchesPresent && !matchesAbsent:
		return VerdictConfirmed
	case matchesAbsent && !matchesPresent:
		return VerdictAbsent
	default:
		return VerdictUnexpected
	}
}

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictConfirmed:
		return "confirmed"
	case VerdictAbsent:
		return "absent"
	case VerdictUnexpected:
		return "unexpected"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Monitor proxies one controller↔switch session and monitors that switch.
type Monitor struct {
	Cfg Config
	Sim *sim.Sim

	// ToSwitch and ToController forward proxied messages; the harness
	// wires them. Sinks must consume the message synchronously: the
	// Monitor reuses the PacketOut and frame buffers of its injection
	// hot path across probes, so a sink that needs the message beyond
	// the call must copy it (WriteMessage and the simulated switch both
	// serialize/copy inline).
	ToSwitch     func(msg openflow.Message, xid uint32)
	ToController func(msg openflow.Message, xid uint32)
	// Mux routes probes caught at this switch to their owners.
	Mux *Multiplexer

	expected *flowtable.Table
	gen      *probe.Generator
	// cache keeps the compiled probe library alive across table changes:
	// rule insertions/deletions recompile only the affected rules instead
	// of rebuilding the whole library each epoch (keyed by updateEpoch).
	cache *probe.SessionCache

	// Dynamic monitoring state.
	pending   map[uint64]*pendingUpdate // by rule ID
	queued    []*queuedMod              // overlapping updates held back (§4.2)
	dynQueue  []uint64                  // arrival (oldest-first) order for the prober
	dynTicker *sim.Timer

	// Barrier gating: barriers are answered to the controller only when
	// the switch replied and every update issued before them confirmed.
	barriers    []*pendingBarrier
	nextVirtXID uint32

	// Steady-state monitoring state.
	steady      *steadyState
	inflight    map[uint64]*observation // unanswered probe copies, by seq
	rtt         rttEstimator            // round trips of caught copies
	nextSeq     uint64
	nonce       uint64
	updateEpoch uint64 // bumped on table changes; invalidates cached probes

	// Injection scratch: one frame buffer, one metadata buffer, and one
	// PacketOut (with its single-element action list) reused across every
	// probe injected by this Monitor. Safe because the Monitor is
	// single-threaded and ToSwitch sinks consume messages synchronously.
	frameBuf   []byte
	metaBuf    []byte
	scratchPO  openflow.PacketOut
	scratchAct [1]openflow.Action

	// Stats for experiments.
	Stats MonitorStats
}

// MonitorStats counts monitor activity.
type MonitorStats struct {
	FlowModsProxied  int
	ProbesSent       int
	ProbesCaught     int
	ProbesStale      int
	Confirmations    int
	Alarms           int
	Unmonitorable    int
	QueuedOverlaps   int
	GeneratedProbes  int
	GenerationFailed int
}

// pendingUpdate tracks one not-yet-confirmed rule update.
type pendingUpdate struct {
	ruleID     uint64
	ob         *observation
	eligibleAt sim.Time
	postponed  *postponedDrop
	// onConfirm runs when the update is verified (used by barrier
	// gating and drop-postponing follow-ups).
	onConfirm []func()
}

// postponedDrop remembers the real drop rule to install after the marked
// version is confirmed (§4.3).
type postponedDrop struct {
	match    flowtable.Match
	priority uint16
	cookie   uint64
}

// queuedMod is a FlowMod held back because it overlaps unconfirmed rules.
type queuedMod struct {
	fm  *openflow.FlowMod
	xid uint32
}

// pendingBarrier gates one controller barrier.
type pendingBarrier struct {
	xid          uint32
	switchAcked  bool
	waitingRules map[uint64]bool
}

// New creates a Monitor. Wire ToSwitch/ToController/Mux before use.
func New(s *sim.Sim, cfg Config) *Monitor {
	if cfg.TagValue == 0 {
		cfg.TagValue = cfg.SwitchID
	}
	m := &Monitor{
		Cfg:      cfg,
		Sim:      s,
		expected: flowtable.New(),
		pending:  make(map[uint64]*pendingUpdate),
		inflight: make(map[uint64]*observation),
		nonce:    uint64(cfg.SwitchID)<<32 | 1,
	}
	// A tag the wire cannot carry leaves every probe failing its Collect
	// constraint; the facade refuses such tags before building a Monitor.
	pcfg, _ := probe.SwitchConfig(uint64(cfg.TagValue), cfg.Ports, cfg.Counting)
	m.gen = probe.NewGenerator(pcfg)
	m.cache = m.gen.NewSessionCache(m.expected)
	return m
}

// Expected exposes the tracked control-plane view (tests, experiments).
func (m *Monitor) Expected() *flowtable.Table { return m.expected }

// Epoch returns the monitor's table-change epoch: it is bumped on every
// change to the expected table, and keys the probe session cache.
func (m *Monitor) Epoch() uint64 { return m.updateEpoch }

// Preinstall records rules that are already in the switch (catching rules,
// pre-existing state) into the expected table without monitoring them.
// Returns the first insert error, if any.
func (m *Monitor) Preinstall(rules ...*flowtable.Rule) error {
	var firstErr error
	for _, r := range rules {
		if err := m.expected.Insert(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.invalidateAllCached()
	return firstErr
}

// CatchRules returns the catching rules this switch must carry for its
// neighbours' probes (strategy 1): one top-priority rule per reserved
// value other than its own, forwarding to the controller. The pre-installed
// drop rule for drop-postponing is appended when that mode is on.
func (m *Monitor) CatchRules(reserved []uint32) []*flowtable.Rule {
	var out []*flowtable.Rule
	id := uint64(0xC0000000) | uint64(m.Cfg.SwitchID)<<16
	for _, v := range reserved {
		if v == m.Cfg.TagValue {
			continue
		}
		out = append(out, &flowtable.Rule{
			ID:       id,
			Priority: catchPriority,
			Match:    flowtable.MatchAll().WithExact(probe.TagField, uint64(v)),
			Actions:  []flowtable.Action{flowtable.Output(flowtable.PortController)},
		})
		id++
	}
	if m.Cfg.DropPostpone {
		out = append(out, &flowtable.Rule{
			ID:       id,
			Priority: dropPriority,
			Match:    flowtable.MatchAll().WithExact(dropField, dropValue),
			Actions:  nil, // drop
		})
	}
	return out
}

// Catch and postponed-drop rule priorities: catching is highest, the
// special drop sits just below it but above production rules (§4.3).
const (
	catchPriority = 1 << 15
	dropPriority  = catchPriority - 1
)

// tableChanged invalidates cached steady-state probes affected by a rule
// change with the given match: per the §5.4 overlap lemma, only probes of
// rules overlapping the changed match can be influenced.
func (m *Monitor) tableChanged(match flowtable.Match) {
	m.updateEpoch++
	if m.steady == nil {
		return
	}
	for id, cp := range m.steady.cache {
		r, ok := m.expected.Get(id)
		if !ok {
			delete(m.steady.cache, id)
			continue
		}
		if r.Match.Overlaps(match) {
			cp.dirty = true
		}
	}
}

// invalidateAllCached marks every cached probe stale (Preinstall and other
// bulk changes).
func (m *Monitor) invalidateAllCached() {
	m.updateEpoch++
	if m.steady == nil {
		return
	}
	for _, cp := range m.steady.cache {
		cp.dirty = true
	}
}

// errUnmonitorable marks generation failures in stats without alarming.
func (m *Monitor) noteGenFailure(err error) {
	m.Stats.GenerationFailed++
	if err == probe.ErrUnmonitorable {
		m.Stats.Unmonitorable++
	}
}

// String identifies the monitor in logs.
func (m *Monitor) String() string { return fmt.Sprintf("monitor(S%d)", m.Cfg.SwitchID) }
