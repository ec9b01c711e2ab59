package monocle

// Line-oriented JSON records for sweep output: cmd/probegen's -json mode
// and fleet sweep consumers emit one ResultRecord per rule, so scripts
// and the sweep service can stream-process results with any JSON tooling.
//
// This file also holds the record/replay drivers built on those records:
// RecordBackend wraps any Backend and captures its complete call and
// event history to a Trace (trace.go), and ReplayBackend re-serves a
// captured trace deterministically — same verdicts, same event order,
// same epochs — so a live-switch failure caught once is reproducible
// offline forever (cmd/monotrace) and in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ResultRecord is the JSON-friendly form of one probe-generation result.
// Header fields are keyed by their OpenFlow 1.0 names (in_port, dl_vlan,
// nw_src, ...) and omit zero-valued fields.
type ResultRecord struct {
	// Switch is the owning switch id (omitted for single-switch runs).
	Switch uint32 `json:"switch,omitempty"`
	// Epoch is the table-change epoch the probe was generated against
	// (fleet sweeps only).
	Epoch uint64 `json:"epoch,omitempty"`
	// Rule is the probed rule's id.
	Rule uint64 `json:"rule"`
	// Unmonitorable reports that no probe can verify this rule (§3.5).
	Unmonitorable bool `json:"unmonitorable,omitempty"`
	// Error carries any other generation failure.
	Error string `json:"error,omitempty"`
	// Probe is the generated probe; nil when generation failed.
	Probe *ProbeRecord `json:"probe,omitempty"`
}

// ProbeRecord is the JSON-friendly form of one generated probe.
type ProbeRecord struct {
	// Header is the probe packet, keyed by OpenFlow field names.
	Header map[string]uint64 `json:"header"`
	// Present is the expected behaviour with the rule installed.
	Present OutcomeRecord `json:"present"`
	// Absent is the behaviour with the rule missing.
	Absent OutcomeRecord `json:"absent"`
	// Negative marks drop-rule probes confirmed by silence (§3.3).
	Negative bool `json:"negative,omitempty"`
	// Vars/Clauses/Overlapping describe the solver instance.
	Vars        int `json:"vars"`
	Clauses     int `json:"clauses"`
	Overlapping int `json:"overlapping"`
}

// OutcomeRecord is the JSON-friendly form of one probe outcome.
type OutcomeRecord struct {
	// Drop reports the probe is not emitted anywhere.
	Drop bool `json:"drop,omitempty"`
	// ECMP reports exactly one of Emissions occurs (switch's choice).
	ECMP bool `json:"ecmp,omitempty"`
	// Emissions lists the (port, rewritten header) pairs.
	Emissions []EmissionRecord `json:"emissions,omitempty"`
}

// EmissionRecord is one (port, rewritten header) pair.
type EmissionRecord struct {
	Port   uint16            `json:"port"`
	Header map[string]uint64 `json:"header"`
}

// NewResultRecord converts one sweep result for switch switchID at table
// epoch epoch; switchID/epoch zero values are omitted from the JSON.
func NewResultRecord(switchID uint32, epoch uint64, res ProbeResult) ResultRecord {
	rec := ResultRecord{Switch: switchID, Epoch: epoch, Rule: res.Rule.ID}
	switch {
	case errors.Is(res.Err, ErrUnmonitorable):
		rec.Unmonitorable = true
	case res.Err != nil:
		rec.Error = res.Err.Error()
	case res.Probe != nil:
		rec.Probe = newProbeRecord(res.Probe)
	}
	return rec
}

// Record converts a fleet sweep event to its JSON line form.
func (e SweepEvent) Record() ResultRecord {
	return NewResultRecord(e.SwitchID, e.Epoch, e.Result)
}

func newProbeRecord(p *Probe) *ProbeRecord {
	return &ProbeRecord{
		Header:      headerMap(p.Header),
		Present:     newOutcomeRecord(p.Present),
		Absent:      newOutcomeRecord(p.Absent),
		Negative:    p.Negative,
		Vars:        p.Stats.Vars,
		Clauses:     p.Stats.Clauses,
		Overlapping: p.Stats.Overlapping,
	}
}

func newOutcomeRecord(o Outcome) OutcomeRecord {
	rec := OutcomeRecord{Drop: o.Drop, ECMP: o.ECMP}
	for _, e := range o.Emissions {
		rec.Emissions = append(rec.Emissions, EmissionRecord{
			Port:   uint16(e.Port),
			Header: headerMap(e.Header),
		})
	}
	return rec
}

// headerMap renders a header with zero-valued fields omitted.
func headerMap(h Header) map[string]uint64 {
	out := make(map[string]uint64)
	for f := FieldID(0); f < NumFields; f++ {
		if v := h.Get(f); v != 0 {
			out[f.String()] = v
		}
	}
	return out
}

// headerMapsEqual compares two rendered headers.
func headerMapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// expectName names an Expectation for the trace wire form.
func expectName(e Expectation) string {
	switch e {
	case ExpectPresent:
		return "present"
	case ExpectAbsent:
		return "absent"
	case ExpectModified:
		return "modified"
	default:
		return fmt.Sprintf("expect(%d)", uint8(e))
	}
}

// verdictFromName parses a Verdict's String form back.
func verdictFromName(s string) Verdict {
	for v := VerdictConfirmed; v <= VerdictUnexpected; v++ {
		if v.String() == s {
			return v
		}
	}
	return VerdictUnexpected
}

// traceErr renders a call error for the trace ("" for success).
func traceErr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// errFromTrace reconstructs a recorded call error, mapping the backend
// sentinels back to their canonical values so errors.Is keeps working
// against a replay.
func errFromTrace(s string) error {
	switch s {
	case "":
		return nil
	case ErrBackendClosed.Error():
		return ErrBackendClosed
	case ErrBackendDisconnected.Error():
		return ErrBackendDisconnected
	default:
		return errors.New(s)
	}
}

// traceOp serializes one BackendOp.
func traceOp(op BackendOp) *TraceOp {
	out := &TraceOp{Op: op.Op, ID: op.ID}
	if op.Rule != nil {
		rs := ruleSpec(op.Rule)
		out.Rule = &rs
	}
	for _, a := range op.Actions {
		out.Actions = append(out.Actions, actionSpec(a))
	}
	return out
}

// traceOpRuleID resolves the rule id a trace op addresses.
func traceOpRuleID(op *TraceOp) uint64 {
	if op == nil {
		return 0
	}
	if op.ID != 0 {
		return op.ID
	}
	if op.Rule != nil {
		return op.Rule.ID
	}
	return 0
}

// backendOpRuleID resolves the rule id a live op addresses.
func backendOpRuleID(op BackendOp) uint64 {
	if op.ID != 0 {
		return op.ID
	}
	if op.Rule != nil {
		return op.Rule.ID
	}
	return 0
}

// traceEvent serializes one BackendEvent.
func traceEvent(ev BackendEvent) *TraceEvent {
	return &TraceEvent{
		Type:   ev.Type.String(),
		Rule:   ev.Rule,
		Err:    traceErr(ev.Err),
		Detail: ev.Detail,
	}
}

// eventFromTrace reconstructs a recorded BackendEvent for switch id.
func eventFromTrace(id uint32, te *TraceEvent) BackendEvent {
	ev := BackendEvent{SwitchID: id, Rule: te.Rule, Err: errFromTrace(te.Err), Detail: te.Detail}
	for t := BackendConnected; t <= BackendClosed; t++ {
		if t.String() == te.Type {
			ev.Type = t
			break
		}
	}
	return ev
}

// describeTraceRecord summarizes a trace record for divergence reports.
func describeTraceRecord(rec *TraceRecord) string {
	switch rec.Kind {
	case TraceKindApply:
		return fmt.Sprintf("apply %s rule %d", rec.Op.Op, traceOpRuleID(rec.Op))
	case TraceKindObserve:
		return fmt.Sprintf("observe rule %d expect %s", rec.RuleID, rec.Expect)
	default:
		return rec.Kind
	}
}

// RecordBackend wraps a Backend and captures its complete session — every
// Connect/Apply/Observe/Epoch call with its outcome and every
// BackendEvent — to a Trace, in call order, while delegating all
// behaviour to the wrapped driver. The Service wraps every switch's
// driver in one when WithRecordDir is set, adding the session-layer
// annotations (RecordSpec, RecordRuleOp, MarkRound) that make the trace
// replayable end to end by cmd/monotrace.
type RecordBackend struct {
	inner    Backend
	tw       *TraceWriter
	events   *eventRing
	pumpDone chan struct{}

	mu     sync.Mutex
	closed bool
}

// NewRecordBackend wraps inner, recording its session to tw. The
// recorder owns tw: Close flushes and closes it.
func NewRecordBackend(inner Backend, tw *TraceWriter) *RecordBackend {
	rb := &RecordBackend{
		inner:    inner,
		tw:       tw,
		events:   newEventRing(),
		pumpDone: make(chan struct{}),
	}
	go rb.pump()
	return rb
}

// pump forwards the inner driver's events to the recorder's own stream,
// writing each to the trace on the way through.
func (rb *RecordBackend) pump() {
	defer close(rb.pumpDone)
	for ev := range rb.inner.Events() {
		rb.append(TraceRecord{Kind: TraceKindEvent, Event: traceEvent(ev)})
		rb.events.emit(ev)
	}
	rb.events.close()
}

// append writes one record, swallowing write errors: a full disk must
// degrade the recording, never the monitoring.
func (rb *RecordBackend) append(rec TraceRecord) {
	_ = rb.tw.Append(rec)
}

// Unwrap returns the wrapped driver (UnwrapBackend walks this).
func (rb *RecordBackend) Unwrap() Backend { return rb.inner }

// SwitchID implements Backend.
func (rb *RecordBackend) SwitchID() uint32 { return rb.inner.SwitchID() }

// Connect implements Backend, recording the call.
func (rb *RecordBackend) Connect(ctx context.Context) error {
	err := rb.inner.Connect(ctx)
	rb.append(TraceRecord{Kind: TraceKindConnect, Err: traceErr(err), Epoch: rb.inner.Epoch()})
	return err
}

// Close implements Backend: the inner driver closes first, the event
// pump drains its remaining events into the trace, and only then is the
// closing record written and the trace flushed shut.
func (rb *RecordBackend) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	rb.mu.Unlock()
	err := rb.inner.Close()
	<-rb.pumpDone
	rb.append(TraceRecord{Kind: TraceKindClose, Err: traceErr(err)})
	if cerr := rb.tw.Close(); err == nil {
		err = cerr
	}
	return err
}

// Apply implements Backend, recording the operation, the driver's
// post-apply epoch, and the outcome.
func (rb *RecordBackend) Apply(op BackendOp) error {
	err := rb.inner.Apply(op)
	rb.append(TraceRecord{Kind: TraceKindApply, Op: traceOp(op), Epoch: rb.inner.Epoch(), Err: traceErr(err)})
	return err
}

// Observe implements Backend as a batch of one (one observe record).
func (rb *RecordBackend) Observe(ctx context.Context, p *Probe, expect Expectation) (Verdict, error) {
	return observeOne(ctx, rb, p, expect)
}

// ObserveBatch implements Backend: the batch takes the wrapped driver's
// path and is captured as one TraceKindObserve record per probe in
// submission order — the probe (its header is the replay matching key),
// the expectation, and the verdict or error.
func (rb *RecordBackend) ObserveBatch(ctx context.Context, probes []*Probe, expects []Expectation) ([]Verdict, []error) {
	verdicts, errs := rb.inner.ObserveBatch(ctx, probes, expects)
	for i, p := range probes {
		rb.append(TraceRecord{
			Kind:    TraceKindObserve,
			Probe:   newProbeRecord(p),
			RuleID:  p.RuleID,
			Expect:  expectName(expects[i]),
			Verdict: verdicts[i].String(),
			Err:     traceErr(errs[i]),
		})
	}
	return verdicts, errs
}

// Epoch implements Backend, annotating the poll in the trace.
func (rb *RecordBackend) Epoch() uint64 {
	e := rb.inner.Epoch()
	rb.append(TraceRecord{Kind: TraceKindEpoch, Epoch: e})
	return e
}

// Events implements Backend.
func (rb *RecordBackend) Events() <-chan BackendEvent { return rb.events.ch }

// EventDrops implements Backend, including the wrapped driver's own drops.
func (rb *RecordBackend) EventDrops() uint64 { return rb.events.drops() + rb.inner.EventDrops() }

// RecordSpec annotates the trace with the switch's registration spec, so
// an offline replay can rebuild the same Service-side configuration.
func (rb *RecordBackend) RecordSpec(spec SwitchSpec) {
	sp := spec
	rb.append(TraceRecord{Kind: TraceKindSpec, Spec: &sp})
}

// RecordRuleOp annotates one service-level rule operation.
func (rb *RecordBackend) RecordRuleOp(op RuleOp) {
	o := op
	rb.append(TraceRecord{Kind: TraceKindRuleOp, RuleOp: &o})
}

// MarkRound annotates the start of sweep round n.
func (rb *RecordBackend) MarkRound(n uint64) {
	rb.append(TraceRecord{Kind: TraceKindRound, Round: n})
}

// Flush forces the trace's pending batch to disk (crash-safety point for
// long-running recordings).
func (rb *RecordBackend) Flush() error { return rb.tw.Flush() }

// String identifies the driver in logs.
func (rb *RecordBackend) String() string {
	return fmt.Sprintf("record-backend(S%d)", rb.inner.SwitchID())
}

// DivergenceError is the structured report ReplayBackend returns when the
// replayed call sequence departs from the recording: the position and
// recorded call it expected next, against the call the replay actually
// made. Once a replay diverges, every subsequent call returns the same
// report.
type DivergenceError struct {
	// Switch is the replayed switch's id.
	Switch uint32 `json:"switch"`
	// Seq is the trace sequence number of the record the replay departed
	// from (0 when the trace was exhausted).
	Seq uint64 `json:"seq,omitempty"`
	// Pos is the record's index within the trace.
	Pos int `json:"pos"`
	// Want describes the recorded call the trace expected next.
	Want string `json:"want"`
	// Got describes the call the replayed session made instead.
	Got string `json:"got"`
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("monocle: replay diverged on switch %d at trace record %d (seq %d): recorded %s, replayed session did %s",
		e.Switch, e.Pos, e.Seq, e.Want, e.Got)
}

// ReplayBackend re-serves a recorded Trace as a live Backend: Apply and
// Observe return exactly the recorded outcomes in exactly the recorded
// order, recorded BackendEvents re-emit on the Events stream at the
// positions they were captured, and Epoch tracks the recorded epochs —
// with zero network access by construction. A call sequence that departs
// from the recording fails loudly with a DivergenceError instead of
// guessing.
type ReplayBackend struct {
	header TraceHeader
	recs   []TraceRecord
	events *eventRing

	mu     sync.Mutex
	pos    int // index of the next unconsumed record
	epoch  uint64
	div    *DivergenceError
	closed bool
}

// NewReplayBackend builds a replay driver over a decoded trace.
func NewReplayBackend(tr *Trace) *ReplayBackend {
	return &ReplayBackend{
		header: tr.Header,
		recs:   tr.Records,
		events: newEventRing(),
	}
}

// OpenReplayBackend decodes the trace at path into a replay driver.
func OpenReplayBackend(path string) (*ReplayBackend, error) {
	tr, err := ReadTraceFile(path)
	if err != nil {
		return nil, err
	}
	return NewReplayBackend(tr), nil
}

// Divergence returns the replay's divergence report, nil while the
// session still matches the recording.
func (rb *ReplayBackend) Divergence() *DivergenceError {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.div
}

// advanceLocked consumes everything up to the next call record: recorded
// events re-emit on the Events stream, annotations are skipped.
func (rb *ReplayBackend) advanceLocked() {
	for rb.pos < len(rb.recs) {
		rec := &rb.recs[rb.pos]
		switch rec.Kind {
		case TraceKindEvent:
			if rec.Event != nil {
				rb.events.emit(eventFromTrace(rb.header.Switch, rec.Event))
			}
		case TraceKindEpoch, TraceKindSpec, TraceKindRuleOp, TraceKindRound:
			// Annotations: session context, not backend calls.
		default:
			return
		}
		rb.pos++
	}
}

// serveLocked serves the next call record, verifying it matches what the
// replayed session is doing. match returns "" on a match or a
// description of the mismatching call.
func (rb *ReplayBackend) serveLocked(kind string, got string, match func(*TraceRecord) bool) (*TraceRecord, error) {
	if rb.div != nil {
		return nil, rb.div
	}
	rb.advanceLocked()
	if rb.pos >= len(rb.recs) {
		rb.div = &DivergenceError{Switch: rb.header.Switch, Pos: rb.pos, Want: "end of trace", Got: got}
		return nil, rb.div
	}
	rec := &rb.recs[rb.pos]
	if rec.Kind != kind || (match != nil && !match(rec)) {
		rb.div = &DivergenceError{Switch: rb.header.Switch, Seq: rec.Seq, Pos: rb.pos, Want: describeTraceRecord(rec), Got: got}
		return nil, rb.div
	}
	rb.pos++
	if rec.Epoch > rb.epoch {
		rb.epoch = rec.Epoch
	}
	rb.advanceLocked()
	return rec, nil
}

// SwitchID implements Backend.
func (rb *ReplayBackend) SwitchID() uint32 { return rb.header.Switch }

// Connect implements Backend by serving the recorded connect call (and
// re-emitting any events recorded before it).
func (rb *ReplayBackend) Connect(ctx context.Context) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.closed {
		return ErrBackendClosed
	}
	rec, err := rb.serveLocked(TraceKindConnect, "connect", nil)
	if err != nil {
		return err
	}
	return errFromTrace(rec.Err)
}

// Apply implements Backend by serving the next recorded apply: the
// operation must address the same op kind and rule id the recording did.
func (rb *ReplayBackend) Apply(op BackendOp) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.closed {
		return ErrBackendClosed
	}
	got := fmt.Sprintf("apply %s rule %d", op.Op, backendOpRuleID(op))
	rec, err := rb.serveLocked(TraceKindApply, got, func(r *TraceRecord) bool {
		return r.Op != nil && r.Op.Op == op.Op && traceOpRuleID(r.Op) == backendOpRuleID(op)
	})
	if err != nil {
		return err
	}
	return errFromTrace(rec.Err)
}

// Observe implements Backend as a batch of one.
func (rb *ReplayBackend) Observe(ctx context.Context, p *Probe, expect Expectation) (Verdict, error) {
	return observeOne(ctx, rb, p, expect)
}

// ObserveBatch implements Backend by serving the next N recorded
// observations under one lock acquisition: each probe's header and
// expectation must match its recording, and the recorded verdict (or
// error) is returned. Solver-internal stats are deliberately not part of
// the match, so a replay survives solver evolution as long as the probe
// stream itself is unchanged.
func (rb *ReplayBackend) ObserveBatch(ctx context.Context, probes []*Probe, expects []Expectation) ([]Verdict, []error) {
	verdicts := make([]Verdict, len(probes))
	errs := make([]error, len(probes))
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for i, p := range probes {
		if err := ctx.Err(); err != nil {
			verdicts[i], errs[i] = VerdictUnexpected, err
			continue
		}
		if rb.closed {
			verdicts[i], errs[i] = VerdictUnexpected, ErrBackendClosed
			continue
		}
		hm := headerMap(p.Header)
		expect := expects[i]
		got := fmt.Sprintf("observe rule %d expect %s", p.RuleID, expectName(expect))
		rec, err := rb.serveLocked(TraceKindObserve, got, func(r *TraceRecord) bool {
			return r.Probe != nil && r.Expect == expectName(expect) && headerMapsEqual(r.Probe.Header, hm)
		})
		switch {
		case err != nil:
			verdicts[i], errs[i] = VerdictUnexpected, err
		case rec.Err != "":
			verdicts[i], errs[i] = VerdictUnexpected, errFromTrace(rec.Err)
		default:
			verdicts[i] = verdictFromName(rec.Verdict)
		}
	}
	return verdicts, errs
}

// Epoch implements Backend: the recorded epoch as of the last served
// call.
func (rb *ReplayBackend) Epoch() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.epoch
}

// Events implements Backend.
func (rb *ReplayBackend) Events() <-chan BackendEvent { return rb.events.ch }

// EventDrops implements Backend.
func (rb *ReplayBackend) EventDrops() uint64 { return rb.events.drops() }

// Close implements Backend: trailing recorded events re-emit, then the
// stream ends. A replay closed before the trace is exhausted is fine —
// partial replays are how bisection works.
func (rb *ReplayBackend) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	rb.advanceLocked()
	rb.mu.Unlock()
	rb.events.emit(BackendEvent{Type: BackendClosed, SwitchID: rb.header.Switch})
	rb.events.close()
	return nil
}

// String identifies the driver in logs.
func (rb *ReplayBackend) String() string {
	return fmt.Sprintf("replay-backend(S%d)", rb.header.Switch)
}
