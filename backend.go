package monocle

// The switch-backend driver seam. A Backend is how the verification stack
// (Verifier, Fleet, Service) reaches one switch's data plane: connect and
// close the driver's transport, apply rule operations to the hardware
// side, inject generated probes and observe what the data plane did to
// them, and watch the driver's lifecycle events. Everything above this
// seam is backend-agnostic — the same Service fronts a simulated data
// plane (SimBackend) or a live TCP OpenFlow 1.0 switch (ProxyBackend),
// and every future driver (record/replay, multi-controller) plugs in
// behind the same interface.

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrBackendClosed reports an operation on a Backend after Close.
var ErrBackendClosed = errors.New("monocle: backend closed")

// ErrBackendDisconnected reports an operation on a live Backend whose
// transport is currently down. Unlike ErrBackendClosed this is a
// transient state: drivers with reconnect enabled keep retrying with
// backoff, and the operation can be retried once a BackendReconnected
// event fires.
var ErrBackendDisconnected = errors.New("monocle: backend disconnected")

// Backend drives one switch's data plane on behalf of the verification
// stack. Implementations must be safe for concurrent use.
type Backend interface {
	// SwitchID identifies the switch this backend drives.
	SwitchID() uint32
	// Connect establishes the driver's transport (a no-op for simulated
	// drivers). It must be called before Apply/Observe.
	Connect(ctx context.Context) error
	// Close releases the transport and ends the Events stream. Close is
	// idempotent.
	Close() error
	// Apply applies one resolved rule operation to the switch's data
	// plane — the hardware side of an update. It does not touch any
	// expected table; the caller owns that bookkeeping.
	Apply(op BackendOp) error
	// Observe judges one probe: exactly ObserveBatch of a batch of one,
	// which is how every built-in driver implements it.
	Observe(ctx context.Context, p *Probe, expect Expectation) (Verdict, error)
	// ObserveBatch injects probes[i] into the data plane and judges the
	// response against the probe's two hypotheses, as Verdict defines.
	// Live drivers re-inject in doubling slots, never while a copy is in
	// flight (unanswered and younger than one measured RTO, raised to
	// the probe's own longest round trip plus 3 ms), until a
	// catch settles expects[i] or their observation timeout elapses (a
	// verdict may take up to timeout + min(RTO, timeout)), keeping a
	// window of observations in flight so a large sweep pipelines its
	// round trips instead of serializing them. Verdicts and per-probe
	// errors (errs[i] nil on success) are positional; len(expects) must
	// equal len(probes). The returned slices are owned by the caller, and
	// the input slices revert to the caller when the call returns — an
	// implementation that keeps working past a partial failure (a live
	// driver's in-flight probes draining after a context abort) must copy
	// them.
	ObserveBatch(ctx context.Context, probes []*Probe, expects []Expectation) ([]Verdict, []error)
	// Epoch reports the driver's view of the switch's data-plane change
	// epoch (bumped on every Apply).
	Epoch() uint64
	// Events returns the driver's lifecycle event stream. The channel is
	// buffered and never blocks the driver: events overflowing the
	// buffer are dropped. It is closed by Close.
	Events() <-chan BackendEvent
	// EventDrops reports the number of events dropped from Events so far,
	// including any wrapped driver's own drops. The Service surfaces it
	// per switch in /metrics (JSON events_dropped and the Prometheus
	// counter monocle_backend_events_dropped_total): a silently lossy
	// event stream would otherwise hide exactly the disconnect/reconnect
	// evidence an operator needs.
	EventDrops() uint64
}

// ObserveBatch judges N probes through be; it is be.ObserveBatch, kept as
// a package function for callers written against the seam.
func ObserveBatch(ctx context.Context, be Backend, probes []*Probe, expects []Expectation) ([]Verdict, []error) {
	return be.ObserveBatch(ctx, probes, expects)
}

// observeOne is every built-in driver's Observe: a batch of one, so each
// driver has exactly one observation body.
func observeOne(ctx context.Context, be Backend, p *Probe, expect Expectation) (Verdict, error) {
	verdicts, errs := be.ObserveBatch(ctx, []*Probe{p}, []Expectation{expect})
	return verdicts[0], errs[0]
}

// BackendOp is one resolved rule operation crossing the driver seam. The
// facade layers translate transport-level operations (HTTP RuleOps: ids,
// JSON field maps) into concrete rules before handing them to a Backend.
type BackendOp struct {
	// Op is "add", "modify", or "delete".
	Op string
	// ID selects the rule for modify and delete.
	ID uint64
	// Rule is the rule to add, or the resolved pre-image of the rule
	// being modified or deleted — nil when the caller could not resolve
	// the id to a rule. Drivers addressing rules by id alone (SimBackend)
	// work without it; drivers that must build wire operations from the
	// rule's match and priority (ProxyBackend) reject unresolved modify
	// and delete ops rather than guess (a guessed match could address
	// the wrong flows on a live switch).
	Rule *Rule
	// Actions is the replacement action list for modify.
	Actions []Action
}

// BackendEventType classifies one driver lifecycle event.
type BackendEventType uint8

// Backend event types.
const (
	// BackendConnected: the driver's transport is up.
	BackendConnected BackendEventType = iota
	// BackendControllerConnected: a controller attached to the driver's
	// controller-side listener (proxy drivers).
	BackendControllerConnected
	// BackendDisconnected: the transport failed; Err carries the cause.
	// Drivers with reconnect enabled begin backoff retries after this.
	BackendDisconnected
	// BackendReconnected: a driver re-established its transport after a
	// BackendDisconnected; in-flight work that resolved as unobserved
	// during the outage can be retried.
	BackendReconnected
	// BackendRuleConfirmed: the driver's own monitoring confirmed a rule
	// in the data plane (proxy drivers proxying a live controller).
	BackendRuleConfirmed
	// BackendAlarm: the driver's own monitoring concluded a rule is
	// misbehaving in the data plane.
	BackendAlarm
	// BackendClosed: Close ran; the event stream ends after this.
	BackendClosed
)

// String names the event type.
func (t BackendEventType) String() string {
	switch t {
	case BackendConnected:
		return "connected"
	case BackendControllerConnected:
		return "controller_connected"
	case BackendDisconnected:
		return "disconnected"
	case BackendReconnected:
		return "reconnected"
	case BackendRuleConfirmed:
		return "rule_confirmed"
	case BackendAlarm:
		return "alarm"
	case BackendClosed:
		return "closed"
	default:
		return fmt.Sprintf("backend_event(%d)", uint8(t))
	}
}

// BackendEvent is one driver lifecycle event.
type BackendEvent struct {
	// Type classifies the event.
	Type BackendEventType
	// SwitchID is the switch the driver fronts.
	SwitchID uint32
	// Rule is the rule id for rule-level events.
	Rule uint64
	// Err carries the failure cause for disconnect events.
	Err error
	// Detail is a human-readable one-liner.
	Detail string
}

// UnwrapBackend returns the innermost driver behind any wrapping layers
// (a RecordBackend, the Service's event tap) by walking Unwrap() Backend
// methods — for callers that need the concrete driver type, the way
// errors.Unwrap walks wrapped errors.
func UnwrapBackend(be Backend) Backend {
	for {
		u, ok := be.(interface{ Unwrap() Backend })
		if !ok {
			return be
		}
		inner := u.Unwrap()
		if inner == nil {
			return be
		}
		be = inner
	}
}

// eventRing is the shared non-blocking event plumbing of the built-in
// backends: sends never block the driver, overflow is dropped (and
// counted), and Close ends the stream exactly once.
type eventRing struct {
	mu      sync.Mutex
	ch      chan BackendEvent
	closed  bool
	dropped uint64
}

func newEventRing() *eventRing {
	return &eventRing{ch: make(chan BackendEvent, 64)}
}

func (r *eventRing) emit(ev BackendEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	select {
	case r.ch <- ev:
	default:
		// Overflow: drop rather than block the driver — but count the
		// drop so /metrics can surface the loss.
		r.dropped++
	}
}

// drops reports how many events overflowed the ring.
func (r *eventRing) drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// close ends the stream; it reports whether this call closed it.
func (r *eventRing) close() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.closed = true
	close(r.ch)
	return true
}

// SimBackend is the simulated switch driver: the data plane is an
// in-memory flow table with TCAM lookup semantics on a private virtual
// clock. Apply mutates the table, ObserveBatch evaluates probes against
// it (EvaluateProbe), and mutating the table through Apply with a different
// targeting than the expected table is exactly the hardware-diverged
// fault the monitoring exists to catch. It preserves the behaviour the
// Service had when its data planes were hard-wired tables.
type SimBackend struct {
	id     uint32
	events *eventRing

	mu     sync.Mutex
	table  *Table
	epoch  uint64
	closed bool
}

// NewSimBackend returns a simulated driver for switch id with an empty
// data-plane table. WithTableMiss sets the table's miss behaviour.
func NewSimBackend(id uint32, opts ...Option) *SimBackend {
	set := defaultSettings()
	set.apply(opts)
	table := NewTable()
	table.Miss = set.miss
	return &SimBackend{
		id:     id,
		events: newEventRing(),
		table:  table,
	}
}

// SwitchID implements Backend.
func (b *SimBackend) SwitchID() uint32 { return b.id }

// Table returns the simulated data-plane table. It is the test and
// fault-injection hook; mutate it only between sweeps (Apply and
// ObserveBatch serialize on the driver's own lock, direct table access
// does not).
func (b *SimBackend) Table() *Table {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.table
}

// Connect implements Backend (simulated transport: nothing to dial).
func (b *SimBackend) Connect(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBackendClosed
	}
	b.events.emit(BackendEvent{Type: BackendConnected, SwitchID: b.id})
	return nil
}

// Close implements Backend.
func (b *SimBackend) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.events.emit(BackendEvent{Type: BackendClosed, SwitchID: b.id})
	b.events.close()
	return nil
}

// Apply implements Backend: the operation mutates the simulated
// data-plane table. Modify and delete address the rule by op.ID alone,
// so unresolved pre-images are fine here.
func (b *SimBackend) Apply(op BackendOp) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBackendClosed
	}
	var err error
	switch op.Op {
	case "add":
		if op.Rule == nil {
			return fmt.Errorf("monocle: backend op %q needs a rule", op.Op)
		}
		err = b.table.Insert(op.Rule.Clone())
	case "modify":
		err = b.table.Modify(op.ID, cloneActions(op.Actions))
	case "delete":
		err = b.table.Delete(op.ID)
	default:
		return fmt.Errorf("monocle: unknown backend op %q", op.Op)
	}
	if err != nil {
		return err
	}
	b.epoch++
	return nil
}

// Observe implements Backend as a batch of one.
func (b *SimBackend) Observe(ctx context.Context, p *Probe, expect Expectation) (Verdict, error) {
	return observeOne(ctx, b, p, expect)
}

// ObserveBatch implements Backend by evaluating every probe against the
// simulated table under one lock acquisition (EvaluateProbe, verdicts as
// Verdict defines). expects is unused: a deterministic table answers at
// once, so there is nothing to settle and no retry to stop early.
// The seam itself adds only the two result-slice allocations on top of
// the per-probe evaluation cost — the alloc pin in the batch tests leans
// on this.
func (b *SimBackend) ObserveBatch(ctx context.Context, probes []*Probe, expects []Expectation) ([]Verdict, []error) {
	verdicts := make([]Verdict, len(probes))
	errs := make([]error, len(probes))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range probes {
		if err := ctx.Err(); err != nil {
			verdicts[i], errs[i] = VerdictUnexpected, err
			continue
		}
		if b.closed {
			verdicts[i], errs[i] = VerdictUnexpected, ErrBackendClosed
			continue
		}
		verdicts[i] = EvaluateProbe(p, b.table)
	}
	return verdicts, errs
}

// Epoch implements Backend.
func (b *SimBackend) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// Events implements Backend.
func (b *SimBackend) Events() <-chan BackendEvent { return b.events.ch }

// EventDrops implements Backend.
func (b *SimBackend) EventDrops() uint64 { return b.events.drops() }

// String identifies the driver in logs.
func (b *SimBackend) String() string { return fmt.Sprintf("sim-backend(S%d)", b.id) }
