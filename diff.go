package monocle

// Cross-epoch diff/alert engine. A Differ folds the SweepEvent stream of a
// fleet into per-switch epoch snapshots and diffs consecutive snapshots,
// turning raw per-rule sweep results into typed, debounced Alerts: a rule
// newly diverging from the controller's view, a rule recovering, a switch
// that stopped contributing sweep results, and a rule whose verdict keeps
// flapping. The paper's promise is *continuous* monitoring (§7): the alert
// stream, not the individual probe result, is what an operator watches.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	imon "monocle/internal/monocle"
)

// RuleStatus classifies one rule's state in one sweep snapshot.
type RuleStatus uint8

// Rule statuses, ordered from healthy to broken.
const (
	// StatusOK: a probe was generated and, when judged against the data
	// plane, confirmed the rule.
	StatusOK RuleStatus = iota
	// StatusUnmonitorable: no probe can verify this rule (§3.5); the
	// diff engine treats it as neutral, not failing.
	StatusUnmonitorable
	// StatusFailing: the probe's data plane observation matched the
	// rule-absent hypothesis or neither hypothesis — hardware and
	// controller state have diverged.
	StatusFailing
	// StatusError: probe generation itself failed (internal error or a
	// cancelled sweep).
	StatusError
)

// bad reports whether the status should count toward failing-rule alerts.
func (s RuleStatus) bad() bool { return s == StatusFailing || s == StatusError }

// String names the status.
func (s RuleStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnmonitorable:
		return "unmonitorable"
	case StatusFailing:
		return "failing"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// MarshalJSON renders the status as its string name.
func (s RuleStatus) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string name form (API clients and tests).
func (s *RuleStatus) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for c := StatusOK; c <= StatusError; c++ {
		if c.String() == name {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("monocle: unknown rule status %q", name)
}

// AlertType classifies one Alert.
type AlertType uint8

// Alert types.
const (
	// AlertRuleFailing: a rule moved into a bad status and stayed there
	// for the debounce threshold (WithDebounce) of consecutive sweeps.
	AlertRuleFailing AlertType = iota
	// AlertRuleRecovered: a rule with an outstanding failing alert
	// produced a good status again.
	AlertRuleRecovered
	// AlertSwitchStalled: a switch that had been sweeping produced no
	// events for WithStallThreshold consecutive sweep rounds.
	AlertSwitchStalled
	// AlertVerdictFlapping: a rule's good/bad state flipped at least the
	// configured number of times inside the flap window (WithFlapWindow).
	AlertVerdictFlapping
	// AlertBackendFlapping: a switch's driver completed at least the
	// configured number of disconnect/reconnect cycles inside the backend
	// flap window (WithBackendFlapWindow) — the reconnect machinery is
	// keeping the switch reachable, but the transport itself is sick.
	AlertBackendFlapping
)

// String names the alert type.
func (t AlertType) String() string {
	switch t {
	case AlertRuleFailing:
		return "rule_failing"
	case AlertRuleRecovered:
		return "rule_recovered"
	case AlertSwitchStalled:
		return "switch_stalled"
	case AlertVerdictFlapping:
		return "verdict_flapping"
	case AlertBackendFlapping:
		return "backend_flapping"
	default:
		return fmt.Sprintf("alert(%d)", uint8(t))
	}
}

// MarshalJSON renders the alert type as its string name.
func (t AlertType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON parses the string name form (API clients and tests).
func (t *AlertType) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for c := AlertRuleFailing; c <= AlertBackendFlapping; c++ {
		if c.String() == name {
			*t = c
			return nil
		}
	}
	return fmt.Errorf("monocle: unknown alert type %q", name)
}

// Alert is one typed cross-epoch finding. Alerts marshal to single JSON
// lines; rule-level alerts carry the triggering sweep result as a
// ResultRecord.
type Alert struct {
	// Type classifies the alert.
	Type AlertType `json:"type"`
	// SwitchID is the member switch the alert concerns.
	SwitchID uint32 `json:"switch"`
	// Rule is the rule id for rule-level alerts (failing/recovered/
	// flapping); rule ids may legitimately be zero, so the field is
	// always emitted and only meaningful for rule-level alert types.
	Rule uint64 `json:"rule"`
	// Epoch is the table-change epoch of the snapshot that raised the
	// alert.
	Epoch uint64 `json:"epoch,omitempty"`
	// Status is the rule's status in that snapshot.
	Status RuleStatus `json:"status,omitempty"`
	// Streak counts consecutive bad sweeps (failing alerts), flips in
	// the flap window (flapping alerts), or missed rounds (stall
	// alerts).
	Streak int `json:"streak,omitempty"`
	// Detail is a human-readable one-liner.
	Detail string `json:"detail,omitempty"`
	// Round is the 1-based sweep-round counter of the Differ that raised
	// the alert. Rounds survive restarts (DifferState carries the
	// counter), so the stamp is stable across a kill-and-resume cycle.
	Round uint64 `json:"round,omitempty"`
	// Seq is the Differ's monotonic alert sequence number: alert N+1 of a
	// diff engine's lifetime (restarts included) carries Seq one greater
	// than alert N. A cluster coordinator merges per-replica alert
	// streams by (Round, SwitchID, Rule, Seq) — the per-replica Seq
	// breaks ties among a switch's alerts within one round without
	// imposing any cross-replica clock.
	Seq uint64 `json:"seq,omitempty"`
	// Record is the sweep result that triggered a rule-level alert.
	Record *ResultRecord `json:"record,omitempty"`
}

// observation is one rule's result within the accumulating snapshot. It
// keeps the sweep event itself: a rule-level alert renders the event's
// ResultRecord when it is raised, so a quiet round renders nothing.
type observation struct {
	status    RuleStatus
	ev        SweepEvent // zero for an unsampled rule
	skipped   bool       // present in the table but unjudgeable this round
	unsampled bool       // present in the table but not selected by the round's plan
}

// ruleDiff is the folded cross-epoch state of one rule.
type ruleDiff struct {
	streak  int    // consecutive bad sweeps
	alerted bool   // failing alert outstanding, awaiting recovery
	hist    []bool // last flapWindow bad-bits, oldest first
	flapped bool   // flapping alert outstanding for the current window
}

// switchDiff is the folded cross-epoch state of one switch.
type switchDiff struct {
	epoch   uint64
	seen    bool // events observed in the current round
	ever    bool // at least one round completed with events
	cur     map[uint64]*observation
	rules   map[uint64]*ruleDiff
	missed  int // consecutive rounds with no events
	stalled bool

	pendingCycles  int   // reconnect cycles completed since the last round
	cycleHist      []int // per-round cycle counts, oldest first
	backendFlapped bool  // backend_flapping alert outstanding
}

// Differ folds a SweepEvent stream into per-switch epoch snapshots and
// diffs consecutive snapshots into Alerts. Feed every event of a sweep
// round through Observe (or ObserveVerdict when the probe was judged
// against the data plane), then call EndSweep once per round to finalize
// the snapshots and collect the round's alerts. Events carrying an epoch
// older than the switch's current snapshot epoch are discarded.
//
// A Differ is safe for concurrent use; alert order within a round is
// deterministic (switches, then rules, ascending by id).
type Differ struct {
	set settings

	mu        sync.Mutex
	switches  map[uint32]*switchDiff
	overrides map[uint32]*DiffOverrides
	rounds    uint64
	seq       uint64
}

// DiffOverrides are per-switch alerting overrides, layered on top of the
// Differ's own thresholds — how a monitoring policy gives one switch group
// tighter debounce or a rule-level alert filter without touching the rest
// of the fleet. Zero-valued thresholds keep the Differ's setting.
type DiffOverrides struct {
	// Debounce overrides WithDebounce for this switch.
	Debounce int
	// StallSweeps overrides WithStallThreshold for this switch.
	StallSweeps int
	// FlapWindow and FlapFlips override WithFlapWindow for this switch
	// (both must be set together to take effect).
	FlapWindow int
	FlapFlips  int
	// AlertFilter, when non-nil, gates the rule-level alert types
	// (rule_failing, rule_recovered, verdict_flapping): alerts for rules
	// it rejects are suppressed symmetrically — a suppressed failure also
	// suppresses its eventual recovery — while the fold state underneath
	// still advances, so removing the filter later resumes alerting from
	// truthful state. Switch-level alerts (switch_stalled,
	// backend_flapping) are never filtered. The rule pointer may be nil
	// when the triggering observation carried no rule body.
	AlertFilter func(rule uint64, r *Rule) bool
}

// SetOverrides installs (or, with nil, clears) one switch's alerting
// overrides. Overrides are not part of DifferState: they derive from the
// active policy, and the Service re-applies them after Restore.
func (d *Differ) SetOverrides(id uint32, ov *DiffOverrides) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ov == nil {
		delete(d.overrides, id)
		return
	}
	if d.overrides == nil {
		d.overrides = make(map[uint32]*DiffOverrides)
	}
	d.overrides[id] = ov
}

// effective returns the alerting thresholds for one switch: the Differ's
// settings with any per-switch overrides applied.
type effectiveThresholds struct {
	debounce, stallSweeps, flapWindow, flapFlips int
	filter                                       func(rule uint64, r *Rule) bool
}

func (d *Differ) effectiveLocked(id uint32) effectiveThresholds {
	eff := effectiveThresholds{
		debounce:    d.set.debounce,
		stallSweeps: d.set.stallSweeps,
		flapWindow:  d.set.flapWindow,
		flapFlips:   d.set.flapFlips,
	}
	ov := d.overrides[id]
	if ov == nil {
		return eff
	}
	if ov.Debounce > 0 {
		eff.debounce = ov.Debounce
	}
	if ov.StallSweeps > 0 {
		eff.stallSweeps = ov.StallSweeps
	}
	if ov.FlapWindow > 0 && ov.FlapFlips > 0 {
		eff.flapWindow = ov.FlapWindow
		eff.flapFlips = ov.FlapFlips
	}
	eff.filter = ov.AlertFilter
	return eff
}

// NewDiffer returns an empty diff engine. WithDebounce, WithStallThreshold,
// and WithFlapWindow tune the alerting thresholds.
func NewDiffer(opts ...Option) *Differ {
	set := defaultSettings()
	set.apply(opts)
	return &Differ{set: set, switches: make(map[uint32]*switchDiff)}
}

// Observe folds one sweep event into the current round's snapshot using
// the generation result alone: rules with probes are StatusOK, rules that
// cannot be probed StatusUnmonitorable, generation failures StatusError.
// Consumers that inject probes and judge the observations should use
// ObserveVerdict instead.
func (d *Differ) Observe(ev SweepEvent) {
	d.observe(ev, statusFromResult(ev.Result))
}

// ObserveVerdict folds one sweep event whose probe was judged against the
// data plane: VerdictConfirmed keeps the rule StatusOK, while
// VerdictAbsent and VerdictUnexpected mark it StatusFailing — the moment
// hardware diverges from the controller's view.
func (d *Differ) ObserveVerdict(ev SweepEvent, v Verdict) {
	st := statusFromResult(ev.Result)
	if st == StatusOK && v != VerdictConfirmed {
		st = StatusFailing
	}
	d.observe(ev, st)
}

// ObserveSkipped records a rule whose sweep observation could not be
// judged this round (the backend disconnected or closed mid-sweep). The
// rule is still part of the expected table, so it must stay in the
// round's snapshot: without this, a partial round — some rules folded
// before the transport died, the rest skipped — would make the skipped
// rules look like intentional table deletions, silently discarding an
// outstanding failing alert and swallowing its eventual recovery. A
// skipped observation contributes presence only; the rule's debounce
// streak, flap history, and alert state carry over frozen.
func (d *Differ) ObserveSkipped(ev SweepEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sw := d.switchLocked(ev.SwitchID)
	if ev.Epoch < sw.epoch {
		return // superseded epoch: the table changed under the sweep
	}
	sw.cur[ev.Result.Rule.ID] = &observation{skipped: true, ev: ev}
}

// ObserveUnsampled records a rule the round's probe plan deliberately left
// out (policy sampling). Like a skipped observation it contributes
// presence only — the rule stays tracked with its debounce streak, flap
// history, and alert state frozen — but unlike skipped it does not imply
// transport trouble: a round whose observations are all unsampled is a
// healthy quiet round, not an outage.
func (d *Differ) ObserveUnsampled(switchID uint32, epoch, rule uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sw := d.switchLocked(switchID)
	if epoch < sw.epoch {
		return // superseded epoch: the table changed under the sweep
	}
	sw.cur[rule] = &observation{unsampled: true}
}

// statusFromResult classifies a generation result without a verdict.
// Both no-probe-exists sentinels are structural properties of the table,
// not divergence: a rule hidden by higher-priority rules (§3.5) and a
// rule rewriting the reserved probe field (§3.2) are unverifiable by
// construction and must not raise failing alerts.
func statusFromResult(res ProbeResult) RuleStatus {
	switch {
	case errors.Is(res.Err, ErrUnmonitorable), errors.Is(res.Err, ErrRewritesProbeField):
		return StatusUnmonitorable
	case res.Err != nil:
		return StatusError
	default:
		return StatusOK
	}
}

// ObserveBackendEvent folds one driver lifecycle event into the current
// round: each BackendReconnected completes one disconnect/reconnect
// cycle, and EndSweep raises AlertBackendFlapping once the cycle count
// inside the backend flap window crosses the WithBackendFlapWindow
// threshold. The Service feeds every switch's event stream through here
// (draining its queue at the start of each round); other event types are
// ignored — an outage without recovery surfaces as switch_stalled
// instead.
func (d *Differ) ObserveBackendEvent(ev BackendEvent) {
	if ev.Type != BackendReconnected {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.switchLocked(ev.SwitchID).pendingCycles++
}

// switchLocked returns (creating if needed) switch id's fold state.
func (d *Differ) switchLocked(id uint32) *switchDiff {
	sw := d.switches[id]
	if sw == nil {
		sw = &switchDiff{
			cur:   make(map[uint64]*observation),
			rules: make(map[uint64]*ruleDiff),
		}
		d.switches[id] = sw
	}
	return sw
}

func (d *Differ) observe(ev SweepEvent, st RuleStatus) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sw := d.switchLocked(ev.SwitchID)
	if ev.Epoch < sw.epoch {
		return // superseded epoch: the table changed under the sweep
	}
	sw.epoch = ev.Epoch
	sw.seen = true
	sw.cur[ev.Result.Rule.ID] = &observation{status: st, ev: ev}
}

// EndSweep finalizes the current round: every switch's accumulated
// snapshot is diffed against its folded history, debounce/flap/stall
// state advances, and the round's alerts are returned (nil when quiet).
// Rules that left the expected table simply stop being tracked — an
// intentional controller change is not a divergence.
func (d *Differ) EndSweep() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]uint32, 0, len(d.switches))
	for id := range d.switches {
		ids = append(ids, id)
	}
	return d.endSweepLocked(ids)
}

// EndSweepScoped finalizes a round that swept only the given switches —
// one policy group's cadence tick. Switches outside the scope are left
// untouched: their in-progress snapshots, missed-round counters, and
// backend flap windows advance only on their own group's rounds, so a
// 50ms edge cadence cannot stall-out a 5s core group. Unknown switch IDs
// are tracked from this round on (a swept switch that produced no events
// must still accrue missed rounds).
func (d *Differ) EndSweepScoped(ids []uint32) []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		d.switchLocked(id)
	}
	return d.endSweepLocked(ids)
}

// AbortSweep discards the current round's accumulated snapshots without
// finalizing anything: no alerts, no debounce/stall/flap advancement, and
// the round does not count. Backend lifecycle cycles already observed stay
// pending for the next completed round. It is how a cancelled sweep (the
// Service's Run context ending mid-round) avoids turning its own partial
// results into false alerts.
func (d *Differ) AbortSweep() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sw := range d.switches {
		if len(sw.cur) > 0 {
			sw.cur = make(map[uint64]*observation)
		}
		sw.seen = false
	}
}

func (d *Differ) endSweepLocked(ids []uint32) []Alert {
	d.rounds++

	var alerts []Alert
	ids = append([]uint32(nil), ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		sw := d.switches[id]
		if sw == nil {
			continue
		}
		eff := d.effectiveLocked(id)

		// Backend flap detection runs for every switch every round —
		// transport health is orthogonal to whether the round produced
		// sweep events (a flapping backend often means it did not).
		sw.cycleHist = append(sw.cycleHist, sw.pendingCycles)
		sw.pendingCycles = 0
		if len(sw.cycleHist) > d.set.backendFlapWindow {
			sw.cycleHist = sw.cycleHist[1:]
		}
		cycles := 0
		for _, c := range sw.cycleHist {
			cycles += c
		}
		if cycles >= d.set.backendFlapCycles {
			if !sw.backendFlapped {
				sw.backendFlapped = true
				alerts = append(alerts, Alert{
					Type:     AlertBackendFlapping,
					SwitchID: id,
					Epoch:    sw.epoch,
					Streak:   cycles,
					Detail:   fmt.Sprintf("switch %d backend reconnected %d times in the last %d sweeps", id, cycles, len(sw.cycleHist)),
				})
			}
		} else {
			sw.backendFlapped = false
		}

		// A round whose entries are all unsampled is a healthy quiet round
		// (the plan chose no rules this tick), not an outage: it takes the
		// normal path below with every entry frozen.
		quiet := !sw.seen && len(sw.cur) > 0
		for _, o := range sw.cur {
			if !quiet {
				break
			}
			quiet = o.unsampled
		}

		if !sw.seen && !quiet {
			// A round with only skipped observations (full outage) counts
			// as missed: the skip entries protected nothing this round,
			// and must not survive into the next snapshot.
			if len(sw.cur) > 0 {
				sw.cur = make(map[uint64]*observation)
			}
			if !sw.ever {
				continue
			}
			sw.missed++
			if !sw.stalled && sw.missed >= eff.stallSweeps {
				sw.stalled = true
				alerts = append(alerts, Alert{
					Type:     AlertSwitchStalled,
					SwitchID: id,
					Epoch:    sw.epoch,
					Streak:   sw.missed,
					Detail:   fmt.Sprintf("switch %d missed %d consecutive sweeps", id, sw.missed),
				})
			}
			continue
		}
		if sw.seen {
			sw.ever = true
		}
		sw.missed = 0
		sw.stalled = false

		rids := make([]uint64, 0, len(sw.cur))
		for rid := range sw.cur {
			rids = append(rids, rid)
		}
		sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })

		for _, rid := range rids {
			o := sw.cur[rid]
			if o.skipped || o.unsampled {
				// Unjudged (or unplanned) this round: the snapshot entry
				// keeps the rule tracked, everything else carries over
				// untouched.
				continue
			}
			pass := eff.filter == nil || eff.filter(rid, o.ev.Result.Rule)
			r := sw.rules[rid]
			if r == nil {
				r = &ruleDiff{}
				sw.rules[rid] = r
			}
			bad := o.status.bad()
			if bad {
				r.streak++
			} else {
				r.streak = 0
			}

			if bad && !r.alerted && r.streak >= eff.debounce {
				r.alerted = true
				if pass {
					rec := o.ev.Record()
					alerts = append(alerts, Alert{
						Type:     AlertRuleFailing,
						SwitchID: id,
						Rule:     rid,
						Epoch:    sw.epoch,
						Status:   o.status,
						Streak:   r.streak,
						Detail:   fmt.Sprintf("rule %d on switch %d %s for %d consecutive sweeps", rid, id, o.status, r.streak),
						Record:   &rec,
					})
				}
			}
			if !bad && r.alerted {
				r.alerted = false
				if pass {
					rec := o.ev.Record()
					alerts = append(alerts, Alert{
						Type:     AlertRuleRecovered,
						SwitchID: id,
						Rule:     rid,
						Epoch:    sw.epoch,
						Status:   o.status,
						Detail:   fmt.Sprintf("rule %d on switch %d recovered", rid, id),
						Record:   &rec,
					})
				}
			}

			// Flap detection over the last flapWindow sweeps.
			r.hist = append(r.hist, bad)
			if len(r.hist) > eff.flapWindow {
				r.hist = r.hist[1:]
			}
			flips := 0
			for i := 1; i < len(r.hist); i++ {
				if r.hist[i] != r.hist[i-1] {
					flips++
				}
			}
			if flips >= eff.flapFlips {
				if !r.flapped {
					r.flapped = true
					if pass {
						rec := o.ev.Record()
						alerts = append(alerts, Alert{
							Type:     AlertVerdictFlapping,
							SwitchID: id,
							Rule:     rid,
							Epoch:    sw.epoch,
							Status:   o.status,
							Streak:   flips,
							Detail:   fmt.Sprintf("rule %d on switch %d flipped %d times in the last %d sweeps", rid, id, flips, len(r.hist)),
							Record:   &rec,
						})
					}
				}
			} else {
				r.flapped = false
			}
		}

		// Rules absent from the snapshot left the expected table.
		for rid := range sw.rules {
			if _, ok := sw.cur[rid]; !ok {
				delete(sw.rules, rid)
			}
		}
		sw.cur = make(map[uint64]*observation)
		sw.seen = false
	}
	// Stamp every alert with the round that raised it and the engine's
	// lifetime sequence number, in emission order — the per-replica merge
	// key a cluster coordinator orders aggregated streams by.
	for i := range alerts {
		d.seq++
		alerts[i].Round = d.rounds
		alerts[i].Seq = d.seq
	}
	return alerts
}

// Rounds returns the number of completed sweep rounds.
func (d *Differ) Rounds() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rounds
}

// RuleDiffState is the serializable fold state of one rule: everything the
// diff engine needs to keep its debounce, recovery, and flap decisions
// coherent across a process restart.
type RuleDiffState struct {
	// Streak counts consecutive bad sweeps.
	Streak int `json:"streak,omitempty"`
	// Alerted marks an outstanding rule_failing alert awaiting recovery.
	Alerted bool `json:"alerted,omitempty"`
	// Hist is the flap window's bad-bit history, oldest first.
	Hist []bool `json:"hist,omitempty"`
	// Flapped marks an outstanding verdict_flapping alert.
	Flapped bool `json:"flapped,omitempty"`
}

// SwitchDiffState is the serializable fold state of one switch.
type SwitchDiffState struct {
	// Epoch is the table-change epoch of the last finalized snapshot.
	Epoch uint64 `json:"epoch"`
	// Ever records that at least one round completed with events (stall
	// detection only arms after that).
	Ever bool `json:"ever,omitempty"`
	// Missed counts consecutive rounds with no events.
	Missed int `json:"missed,omitempty"`
	// Stalled marks an outstanding switch_stalled alert.
	Stalled bool `json:"stalled,omitempty"`
	// PendingCycles counts reconnect cycles observed since the last
	// finalized round.
	PendingCycles int `json:"pending_cycles,omitempty"`
	// CycleHist is the backend flap window's per-round reconnect-cycle
	// counts, oldest first.
	CycleHist []int `json:"cycle_hist,omitempty"`
	// BackendFlapped marks an outstanding backend_flapping alert.
	BackendFlapped bool `json:"backend_flapped,omitempty"`
	// Rules is the per-rule fold state.
	Rules map[uint64]RuleDiffState `json:"rules,omitempty"`
}

// DifferState is the full serializable fold state of a Differ — what a
// Store persists so a restarted process resumes diffing from the last
// completed round instead of re-learning every rule's state (and paging
// the operator with false rule_recovered alerts while it does).
type DifferState struct {
	// Rounds is the completed sweep-round count.
	Rounds uint64 `json:"rounds,omitempty"`
	// Seq is the lifetime alert sequence counter (the Seq stamp of the
	// most recently raised alert), so a restarted engine keeps numbering
	// where the previous life stopped.
	Seq uint64 `json:"seq,omitempty"`
	// Switches is the per-switch fold state.
	Switches map[uint32]SwitchDiffState `json:"switches,omitempty"`
}

// State snapshots the engine's folded cross-epoch state. Call it between
// rounds (after EndSweep): the in-progress snapshot of a half-fed round is
// not part of the state.
func (d *Differ) State() DifferState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DifferState{Rounds: d.rounds, Seq: d.seq}
	if len(d.switches) > 0 {
		st.Switches = make(map[uint32]SwitchDiffState, len(d.switches))
	}
	for id, sw := range d.switches {
		s := SwitchDiffState{
			Epoch:          sw.epoch,
			Ever:           sw.ever,
			Missed:         sw.missed,
			Stalled:        sw.stalled,
			PendingCycles:  sw.pendingCycles,
			CycleHist:      append([]int(nil), sw.cycleHist...),
			BackendFlapped: sw.backendFlapped,
		}
		if len(sw.rules) > 0 {
			s.Rules = make(map[uint64]RuleDiffState, len(sw.rules))
		}
		for rid, r := range sw.rules {
			s.Rules[rid] = RuleDiffState{
				Streak:  r.streak,
				Alerted: r.alerted,
				Hist:    append([]bool(nil), r.hist...),
				Flapped: r.flapped,
			}
		}
		st.Switches[id] = s
	}
	return st
}

// Restore replaces the engine's folded state with a previously captured
// State snapshot, discarding any in-progress round. After Restore the next
// sweep round diffs against the restored history exactly as if the process
// had never restarted.
func (d *Differ) Restore(st DifferState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rounds = st.Rounds
	d.seq = st.Seq
	d.switches = make(map[uint32]*switchDiff, len(st.Switches))
	for id, s := range st.Switches {
		sw := &switchDiff{
			epoch:          s.Epoch,
			ever:           s.Ever,
			missed:         s.Missed,
			stalled:        s.Stalled,
			pendingCycles:  s.PendingCycles,
			cycleHist:      append([]int(nil), s.CycleHist...),
			backendFlapped: s.BackendFlapped,
			cur:            make(map[uint64]*observation),
			rules:          make(map[uint64]*ruleDiff, len(s.Rules)),
		}
		for rid, r := range s.Rules {
			sw.rules[rid] = &ruleDiff{
				streak:  r.Streak,
				alerted: r.Alerted,
				hist:    append([]bool(nil), r.Hist...),
				flapped: r.Flapped,
			}
		}
		d.switches[id] = sw
	}
}

// EvaluateProbe judges a generated probe against an actual data-plane
// table, simulating its injection: the probe packet is looked up in
// actual, the matched rule's emissions are observed, and the observation
// set is classified against the probe's two hypotheses as Verdict
// defines. It is how the monocled service (and any consumer holding a
// model of the hardware state) turns sweep probes into verdicts without a
// live switch.
func EvaluateProbe(p *Probe, actual *Table) Verdict {
	ems := tableEmissions(actual, p.Header)
	return imon.Classify(outcomeConsistent(p.Present, ems), outcomeConsistent(p.Absent, ems))
}

// tableEmissions computes what the table's data plane emits for packet h.
func tableEmissions(t *Table, h Header) []Emission {
	r := t.Lookup(h)
	if r == nil {
		if t.Miss == MissController {
			return []Emission{{Port: PortController, Header: h}}
		}
		return nil
	}
	return r.Apply(h, func(int) int { return 0 })
}

// outcomeConsistent reports whether an observed emission set is consistent
// with one expected outcome. The ingress port is not part of an emitted
// packet, so in_port is masked on both sides (as Judge does).
func outcomeConsistent(o Outcome, ems []Emission) bool {
	if o.Drop {
		return len(ems) == 0
	}
	if o.ECMP {
		return len(ems) == 1 && emissionExpected(o.Emissions, ems[0])
	}
	if len(ems) != len(o.Emissions) {
		return false
	}
	used := make([]bool, len(o.Emissions))
	for _, e := range ems {
		found := false
		for i, want := range o.Emissions {
			if used[i] {
				continue
			}
			if emissionEqual(want, e) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// emissionExpected reports whether e matches any expected emission.
func emissionExpected(want []Emission, e Emission) bool {
	for _, w := range want {
		if emissionEqual(w, e) {
			return true
		}
	}
	return false
}

// emissionEqual compares two emissions ignoring in_port.
func emissionEqual(a, b Emission) bool {
	if a.Port != b.Port {
		return false
	}
	ha, hb := a.Header, b.Header
	ha.Set(InPort, 0)
	hb.Set(InPort, 0)
	return ha == hb
}
