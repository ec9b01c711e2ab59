package monocle

// ProxyBackend: the live-switch driver. It is cmd/monocle's TCP proxy
// event loop lifted into the library — the proxy dials the switch, a
// controller can dial the proxy, reader goroutines post every OpenFlow
// message onto one event-loop thread, and the single-threaded Monitor
// state machine intercepts the session exactly as the paper deploys it
// (§7: one proxy per switch-controller connection). On top of the proxy
// loop it implements the Backend seam: Apply writes FlowMods to the
// switch, ObserveBatch injects probes through the control channel and
// judges the catches — so a Fleet or the monocled Service can front real
// OpenFlow 1.0 hardware through the same facade it uses for simulated
// data planes.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	imon "monocle/internal/monocle"
	"monocle/internal/netx"
	"monocle/internal/sim"
)

// ProxyGroup shares one event-loop thread, one virtual clock, and one
// probe-routing Multiplexer among the ProxyBackends of a deployment.
// Backends in one group can catch each other's probes (cross-switch
// routing, which a process-per-switch deployment cannot do); every
// Monitor of the group runs on the group's single loop thread, satisfying
// the Multiplexer's contract. A nil ProxyConfig.Group gives each backend
// a private group.
type ProxyGroup struct {
	clock *sim.Sim
	mux   *imon.Multiplexer

	mu      sync.Mutex
	ch      chan func()
	started bool
	stopped bool
	refs    int
	done    chan struct{}
	start   time.Time
}

// NewProxyGroup returns an empty proxy group. Its event loop starts when
// the first member backend connects and stops when the last one closes.
func NewProxyGroup() *ProxyGroup {
	return &ProxyGroup{
		clock: sim.New(),
		mux:   imon.NewMultiplexer(),
		ch:    make(chan func(), 1024),
		done:  make(chan struct{}),
	}
}

// retain counts one member in and (re)starts the loop if needed: a group
// whose loop stopped after its last member closed comes back for a newly
// connecting member.
func (g *ProxyGroup) retain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refs++
	if g.stopped {
		g.stopped = false
		g.started = false
		g.done = make(chan struct{})
	}
	if g.started {
		return
	}
	g.started = true
	g.start = time.Now()
	go g.run(g.done)
}

// release counts one member out; the last release stops the loop.
func (g *ProxyGroup) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refs > 0 {
		g.refs--
	}
	if g.refs == 0 && g.started && !g.stopped {
		g.stopped = true
		close(g.done)
	}
}

// doneCh snapshots the current stop channel (replaced on restart).
func (g *ProxyGroup) doneCh() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done
}

// post queues fn onto the loop thread. Before the loop first starts
// (wiring, CatchRules at setup time) fn runs inline — setup is
// single-threaded by construction. While the loop is stopped, fn is
// dropped and post reports false.
func (g *ProxyGroup) post(fn func()) bool {
	g.mu.Lock()
	started, stopped, done := g.started, g.stopped, g.done
	g.mu.Unlock()
	if !started {
		if stopped {
			return false
		}
		fn()
		return true
	}
	select {
	case g.ch <- fn:
		return true
	case <-done:
		return false
	}
}

// call runs fn on the loop thread and waits for it to finish. If the
// loop stops while the call is queued (the last backend closing
// mid-operation), the stopping loop drains its queue, so the wait still
// resolves; a short grace period covers the enqueue/stop race.
func (g *ProxyGroup) call(fn func()) bool {
	doneCh := make(chan struct{})
	if !g.post(func() { fn(); close(doneCh) }) {
		return false
	}
	select {
	case <-doneCh:
		return true
	case <-g.doneCh():
		grace := time.NewTimer(time.Second)
		defer grace.Stop()
		select {
		case <-doneCh:
			return true
		case <-grace.C:
			return false
		}
	}
}

// resetTimer re-arms a loop-owned timer whose channel only this goroutine
// receives from: stop, drain a stale tick if one is pending, re-arm.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// run drives the virtual clock against wall time: external events are
// posted through the channel, timers fire when their virtual due time
// passes. All Monitor state machines of the group stay single-threaded
// inside this loop. Posts run before the timers that fell due while they
// waited, so a stalled loop never fires an observation's deadline ahead
// of a catch that arrived in time.
func (g *ProxyGroup) run(done chan struct{}) {
	// One timer reused across iterations: time.After here would allocate
	// a timer per loop turn that lives until it fires — with a ~1ms floor
	// under load that is a steady allocation churn for the lifetime of
	// the deployment.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// A turn runs at most a channel's worth of posts before timers.
		for n := 0; n < cap(g.ch) && len(g.ch) > 0; n++ {
			g.advance()
			(<-g.ch)()
		}
		g.clock.RunUntil(sim.Time(time.Since(g.start)))
		var wait time.Duration = 50 * time.Millisecond
		if at, ok := g.clock.NextEventAt(); ok {
			if d := at - g.clock.Now(); d < wait {
				wait = time.Duration(d)
			}
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		resetTimer(timer, wait)
		select {
		case <-done:
			// Drain queued work so no post-and-wait caller hangs on a
			// function that will never run.
			for {
				select {
				case fn := <-g.ch:
					fn()
				default:
					return
				}
			}
		case fn := <-g.ch:
			g.advance()
			fn()
		case <-timer.C:
		}
	}
}

// advance moves the virtual clock toward wall time, stopping short of
// the next due timer: it fires nothing.
func (g *ProxyGroup) advance() {
	to := sim.Time(time.Since(g.start))
	if at, ok := g.clock.NextEventAt(); ok && at <= to {
		to = at - 1
	}
	g.clock.RunUntil(to)
}

// ProxyConfig configures one ProxyBackend.
type ProxyConfig struct {
	// SwitchID is the monitored switch's Monocle identifier (and default
	// probe tag).
	SwitchID uint32
	// SwitchAddr is the TCP address of the OpenFlow 1.0 switch to dial.
	SwitchAddr string
	// Listen is the controller-side listen address. Empty disables the
	// controller side: the backend's owner is the only controller.
	Listen string
	// Steady starts the Monitor's steady-state probing cycle on connect.
	Steady bool
	// ObserveTimeout is one probe's observation window (default 2s),
	// stretched by up to one RTO while its newest copy is in flight.
	ObserveTimeout time.Duration
	// Group shares an event loop and probe-routing Multiplexer with
	// other backends (nil: a private group).
	Group *ProxyGroup
	// ReconnectMin is the first reconnect backoff delay after a
	// switch-side transport failure (default 100ms). Each failed redial
	// doubles the delay up to ReconnectMax, and every delay is jittered
	// over [d/2, d] so a fleet-wide outage does not thunder back in sync.
	ReconnectMin time.Duration
	// ReconnectMax caps the reconnect backoff delay (default 15s).
	ReconnectMax time.Duration
}

// ProxyBackend fronts one live OpenFlow 1.0 switch over TCP. Construct it
// with NewProxyBackend, call Connect, and register it in a Fleet (or let
// the Service do all of this from a SwitchSpec with backend "proxy").
type ProxyBackend struct {
	cfg   ProxyConfig
	group *ProxyGroup
	mon   *imon.Monitor
	ev    *eventRing

	// connectMu serializes Connect calls (check-then-dial must be
	// atomic with respect to concurrent Connects).
	connectMu sync.Mutex

	// closedCh is closed by Close: it aborts reconnect backoff sleeps
	// and resolves in-flight observation waits.
	closedCh chan struct{}

	mu        sync.Mutex
	started   bool // Connect completed once; reconnects reuse its wiring
	swConn    net.Conn
	ctrlLn    net.Listener
	ctrlConn  net.Conn
	connected bool
	// connGen numbers switch-side transports; readers and writers of a
	// replaced transport carry a stale generation and cannot tear down
	// its successor.
	connGen uint64
	// connLost is closed when the current transport fails (replaced on
	// reconnect); in-flight ObserveBatch calls select on it so a drop
	// resolves them as unobserved instead of letting them hang out the
	// full observation timeout.
	connLost     chan struct{}
	reconnecting bool
	retained     bool // holds one reference on the group's loop
	closed       bool
	epoch        uint64
	nextXID      uint32
}

// defaultObserveTimeout is ProxyConfig.ObserveTimeout's default.
const defaultObserveTimeout = 2 * time.Second

// NewProxyBackend builds the TCP proxy driver for cfg. The options
// parameterize the embedded Monitor (see newMonitorConfig): WithProbeTag
// sets the probe tag, WithPeers the port-to-catcher map, WithPorts the
// in_port domain, WithProbeRate the steady-state rate,
// WithDetectionTimeout the monitoring deadlines, WithCounting the
// multicast/ECMP exception.
func NewProxyBackend(cfg ProxyConfig, opts ...Option) *ProxyBackend {
	if cfg.ObserveTimeout <= 0 {
		cfg.ObserveTimeout = defaultObserveTimeout
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 15 * time.Second
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = cfg.ReconnectMin
	}
	group := cfg.Group
	if group == nil {
		group = NewProxyGroup()
	}
	pb := &ProxyBackend{
		cfg:      cfg,
		group:    group,
		ev:       newEventRing(),
		closedCh: make(chan struct{}),
		connLost: make(chan struct{}),
	}
	mcfg := newMonitorConfig(cfg.SwitchID, opts...)
	mcfg.OnAlarm = func(ruleID uint64, at sim.Time) {
		pb.ev.emit(BackendEvent{Type: BackendAlarm, SwitchID: cfg.SwitchID, Rule: ruleID,
			Detail: fmt.Sprintf("rule %d misbehaving in the data plane (t=%v)", ruleID, at)})
	}
	mcfg.OnRuleConfirmed = func(ruleID uint64, at sim.Time) {
		pb.ev.emit(BackendEvent{Type: BackendRuleConfirmed, SwitchID: cfg.SwitchID, Rule: ruleID,
			Detail: fmt.Sprintf("rule %d confirmed in the data plane (t=%v)", ruleID, at)})
	}
	pb.mon = imon.New(group.clock, mcfg)
	// Register before any loop delivery can happen (the Multiplexer's
	// register-before-start contract).
	pb.mon.Mux = group.mux
	group.mux.Register(pb.mon)
	return pb
}

// newMonitorConfig returns the paper-default Monitor parameters for one
// switch with the facade options applied.
func newMonitorConfig(switchID uint32, opts ...Option) imon.Config {
	set := defaultSettings()
	set.apply(opts)
	cfg := imon.DefaultConfig(switchID)
	if set.probeTag != 0 {
		cfg.TagValue = uint32(set.probeTag)
	}
	if set.peers != nil {
		cfg.PortPeer = set.peers
	}
	if len(set.ports) > 0 {
		cfg.Ports = append([]PortID(nil), set.ports...)
	}
	if set.detectionTimeout > 0 {
		cfg.AlarmTimeout = set.detectionTimeout
	}
	if set.probeRate > 0 {
		cfg.ProbeRate = set.probeRate
	}
	cfg.Counting = set.counting
	return cfg
}

// SwitchID implements Backend.
func (pb *ProxyBackend) SwitchID() uint32 { return pb.cfg.SwitchID }

// SetObserveTimeout replaces the per-probe observation bound at runtime
// (non-positive values are ignored). The Service calls it when a
// monitoring policy attaches a "confirm within" deadline to this switch;
// in-flight observations keep the timeout they started with.
func (pb *ProxyBackend) SetObserveTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	pb.mu.Lock()
	pb.cfg.ObserveTimeout = d
	pb.mu.Unlock()
}

// ControllerAddr returns the resolved controller-side listen address
// ("" before Connect or without a Listen configuration) — the address an
// SDN controller dials to reach the monitored switch through this proxy.
func (pb *ProxyBackend) ControllerAddr() string {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.ctrlLn == nil {
		return ""
	}
	return pb.ctrlLn.Addr().String()
}

// Connect implements Backend: it dials the switch, starts the group's
// event loop and the reader goroutines, and (with a Listen address)
// starts accepting the controller side.
func (pb *ProxyBackend) Connect(ctx context.Context) error {
	pb.connectMu.Lock()
	defer pb.connectMu.Unlock()
	pb.mu.Lock()
	if pb.closed {
		pb.mu.Unlock()
		return ErrBackendClosed
	}
	if pb.started {
		pb.mu.Unlock()
		return nil
	}
	pb.mu.Unlock()

	swConn, err := netx.Dial(ctx, "tcp", pb.cfg.SwitchAddr)
	if err != nil {
		return fmt.Errorf("monocle: proxy backend S%d: dialing switch: %w", pb.cfg.SwitchID, err)
	}
	var ctrlLn net.Listener
	if pb.cfg.Listen != "" {
		ctrlLn, err = net.Listen("tcp", pb.cfg.Listen)
		if err != nil {
			swConn.Close()
			return fmt.Errorf("monocle: proxy backend S%d: listen: %w", pb.cfg.SwitchID, err)
		}
	}

	pb.mu.Lock()
	if pb.closed {
		pb.mu.Unlock()
		swConn.Close()
		if ctrlLn != nil {
			ctrlLn.Close()
		}
		return ErrBackendClosed
	}
	pb.started = true
	pb.swConn = swConn
	pb.ctrlLn = ctrlLn
	pb.connected = true
	pb.connGen = 1
	gen := pb.connGen
	pb.retained = true
	pb.mu.Unlock()

	pb.group.retain()
	pb.group.call(func() {
		pb.mon.ToSwitch = pb.writeSwitch
		pb.mon.ToController = pb.writeController
		if pb.cfg.Steady {
			pb.mon.StartSteadyState()
		}
	})

	go pb.readSwitch(swConn, gen)
	if ctrlLn != nil {
		go pb.acceptControllers(ctrlLn)
	}
	pb.ev.emit(BackendEvent{Type: BackendConnected, SwitchID: pb.cfg.SwitchID,
		Detail: fmt.Sprintf("connected to switch %s", pb.cfg.SwitchAddr)})
	return nil
}

// writeSwitch is the Monitor's switch-side sink. While the transport is
// down the write is dropped — the Monitor's own timers re-drive probing
// and detection once the transport comes back — and a write error tears
// down only the transport generation it happened on.
func (pb *ProxyBackend) writeSwitch(msg Message, xid uint32) {
	pb.mu.Lock()
	conn, gen, up := pb.swConn, pb.connGen, pb.connected && !pb.closed
	pb.mu.Unlock()
	if !up || conn == nil {
		return
	}
	if err := WriteMessage(conn, msg, xid); err != nil {
		pb.transportFailed(gen, fmt.Errorf("write to switch: %w", err))
	}
}

// writeController is the Monitor's controller-side sink. A controller
// that fails mid-write is dropped and replaced by the next one to attach;
// a controller-side failure never tears down the switch side.
func (pb *ProxyBackend) writeController(msg Message, xid uint32) {
	pb.mu.Lock()
	conn := pb.ctrlConn
	pb.mu.Unlock()
	if conn == nil {
		return // no controller attached: drop the pass-through
	}
	if err := WriteMessage(conn, msg, xid); err != nil {
		pb.mu.Lock()
		if pb.ctrlConn == conn {
			pb.ctrlConn = nil
		}
		pb.mu.Unlock()
		conn.Close()
	}
}

// readSwitch pumps switch→proxy messages onto the event loop. gen tags
// the transport this reader serves: after a reconnect the stale reader's
// failure report cannot tear down the replacement transport.
func (pb *ProxyBackend) readSwitch(conn net.Conn, gen uint64) {
	for {
		msg, xid, err := ReadMessage(conn)
		if err != nil {
			pb.transportFailed(gen, fmt.Errorf("switch read: %w", err))
			return
		}
		if !pb.group.post(func() { pb.mon.OnSwitchMessage(msg, xid) }) {
			return
		}
	}
}

// acceptControllers serves the controller-side listener: each accepted
// connection becomes the current controller (replacing any previous one)
// and its messages are pumped onto the event loop.
func (pb *ProxyBackend) acceptControllers(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		pb.mu.Lock()
		if pb.closed {
			pb.mu.Unlock()
			conn.Close()
			return
		}
		if prev := pb.ctrlConn; prev != nil {
			prev.Close()
		}
		pb.ctrlConn = conn
		pb.mu.Unlock()
		pb.ev.emit(BackendEvent{Type: BackendControllerConnected, SwitchID: pb.cfg.SwitchID,
			Detail: fmt.Sprintf("controller connected from %s", conn.RemoteAddr())})
		go pb.readController(conn)
	}
}

// readController pumps controller→proxy messages onto the event loop.
func (pb *ProxyBackend) readController(conn net.Conn) {
	for {
		msg, xid, err := ReadMessage(conn)
		if err != nil {
			pb.mu.Lock()
			if pb.ctrlConn == conn {
				pb.ctrlConn = nil
			}
			pb.mu.Unlock()
			return // controller went away; the switch side stays up
		}
		if !pb.group.post(func() { pb.mon.OnControllerMessage(msg, xid) }) {
			return
		}
	}
}

// transportFailed records a broken switch-side transport once per
// generation and starts the backoff redial loop unless one is already
// running. Reports from a generation already replaced by a reconnect are
// stale and ignored.
func (pb *ProxyBackend) transportFailed(gen uint64, err error) {
	pb.mu.Lock()
	if pb.closed || gen != pb.connGen || !pb.connected {
		pb.mu.Unlock()
		return
	}
	pb.connected = false
	close(pb.connLost)
	conn := pb.swConn
	pb.swConn = nil
	startLoop := !pb.reconnecting
	if startLoop {
		pb.reconnecting = true
	}
	pb.mu.Unlock()

	if conn != nil {
		conn.Close()
	}
	pb.ev.emit(BackendEvent{Type: BackendDisconnected, SwitchID: pb.cfg.SwitchID, Err: err,
		Detail: err.Error()})
	if startLoop {
		go pb.reconnectLoop()
	}
}

// reconnectLoop redials the switch with jittered exponential backoff
// until it succeeds or the backend closes. On success it installs the new
// transport under the next generation, restarts the reader, and emits
// BackendReconnected; the Monitor's state machine is untouched — its
// expected table and epoch survive the outage, so the member re-enters
// the sweep pool exactly where it left off.
func (pb *ProxyBackend) reconnectLoop() {
	// Deterministic per-switch jitter source: spreads a fleet-wide outage
	// without global rand contention.
	rng := rand.New(rand.NewSource(int64(pb.cfg.SwitchID)*2654435761 + 1))
	delay := pb.cfg.ReconnectMin
	timer := time.NewTimer(jitterDelay(rng, delay))
	defer timer.Stop()
	for attempt := 1; ; attempt++ {
		select {
		case <-pb.closedCh:
			return
		case <-timer.C:
		}
		dialTimeout := pb.cfg.ReconnectMax
		if dialTimeout < time.Second {
			dialTimeout = time.Second
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		conn, err := netx.Dial(dialCtx, "tcp", pb.cfg.SwitchAddr)
		cancel()
		if err != nil {
			delay *= 2
			if delay > pb.cfg.ReconnectMax {
				delay = pb.cfg.ReconnectMax
			}
			resetTimer(timer, jitterDelay(rng, delay))
			continue
		}
		pb.mu.Lock()
		if pb.closed {
			pb.mu.Unlock()
			conn.Close()
			return
		}
		pb.connGen++
		gen := pb.connGen
		pb.swConn = conn
		pb.connected = true
		pb.connLost = make(chan struct{})
		pb.reconnecting = false
		pb.mu.Unlock()

		go pb.readSwitch(conn, gen)
		pb.ev.emit(BackendEvent{Type: BackendReconnected, SwitchID: pb.cfg.SwitchID,
			Detail: fmt.Sprintf("reconnected to switch %s after %d attempt(s)", pb.cfg.SwitchAddr, attempt)})
		return
	}
}

// jitterDelay spreads one backoff delay over [d/2, d].
func jitterDelay(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d
	}
	half := int64(d / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// Close implements Backend.
func (pb *ProxyBackend) Close() error {
	pb.mu.Lock()
	if pb.closed {
		pb.mu.Unlock()
		return nil
	}
	pb.closed = true
	pb.connected = false
	retained := pb.retained
	pb.retained = false
	swConn, ctrlLn, ctrlConn := pb.swConn, pb.ctrlLn, pb.ctrlConn
	pb.swConn, pb.ctrlLn, pb.ctrlConn = nil, nil, nil
	close(pb.closedCh) // aborts reconnect backoff and in-flight observations
	pb.mu.Unlock()

	if swConn != nil {
		swConn.Close()
	}
	if ctrlLn != nil {
		ctrlLn.Close()
	}
	if ctrlConn != nil {
		ctrlConn.Close()
	}
	pb.ev.emit(BackendEvent{Type: BackendClosed, SwitchID: pb.cfg.SwitchID})
	pb.ev.close()
	if retained {
		pb.group.release()
	}
	return nil
}

// Apply implements Backend: the operation becomes an OpenFlow 1.0 FlowMod
// written to the switch, bypassing the Monitor's expected table — the
// caller (Service, tests) owns the expected-state bookkeeping, and a
// mutation applied here without a matching expected-side update is
// exactly a hardware-diverged-behind-the-controller's-back fault.
func (pb *ProxyBackend) Apply(op BackendOp) error {
	// Wire operations are built from the rule's match and priority, and
	// modify/delete go out strict (exact match + priority) so they can
	// only address the one rule they name. An unresolved pre-image would
	// force a guessed match — on a live switch a wildcard guess could
	// modify or delete every flow — so it is rejected instead.
	if op.Rule == nil {
		if op.Op == "add" {
			return fmt.Errorf("monocle: backend op %q needs a rule", op.Op)
		}
		return fmt.Errorf("monocle: %s of rule %d: pre-image not resolved (rule unknown to the expected table); a live driver cannot address it safely", op.Op, op.ID)
	}
	var cmd uint16
	actions := op.Rule.Actions
	switch op.Op {
	case "add":
		cmd = FCAdd
	case "modify":
		cmd = FCModifyStrict
		actions = op.Actions
	case "delete":
		cmd = FCDeleteStrict
		actions = nil
	default:
		return fmt.Errorf("monocle: unknown backend op %q", op.Op)
	}
	wm, err := FromMatch(op.Rule.Match)
	if err != nil {
		return err
	}
	wireActs, err := FromActions(actions)
	if err != nil {
		return err
	}
	fm := &FlowMod{
		Match:    wm,
		Cookie:   op.Rule.ID,
		Command:  cmd,
		Priority: uint16(op.Rule.Priority),
		BufferID: BufferNone,
		OutPort:  PortNone,
		Actions:  wireActs,
	}

	pb.mu.Lock()
	if pb.closed {
		pb.mu.Unlock()
		return ErrBackendClosed
	}
	if !pb.connected {
		pb.mu.Unlock()
		return ErrBackendDisconnected
	}
	pb.nextXID++
	xid := 0x4e000000 | pb.nextXID&0xffffff
	pb.epoch++
	pb.mu.Unlock()

	// Write on the loop thread (one writer per conn), but directly rather
	// than through the Monitor's ToSwitch sink: the sink silently drops
	// writes while disconnected, and Apply must report that, not pretend
	// the FlowMod reached the switch.
	var writeErr error
	ok := pb.group.call(func() {
		pb.mu.Lock()
		conn, gen, up := pb.swConn, pb.connGen, pb.connected && !pb.closed
		pb.mu.Unlock()
		if !up || conn == nil {
			writeErr = ErrBackendDisconnected
			return
		}
		if err := WriteMessage(conn, fm, xid); err != nil {
			pb.transportFailed(gen, fmt.Errorf("write to switch: %w", err))
			writeErr = fmt.Errorf("monocle: proxy backend S%d: %w", pb.cfg.SwitchID, err)
		}
	})
	if !ok {
		return ErrBackendClosed
	}
	return writeErr
}

// Observe implements Backend as a batch of one.
func (pb *ProxyBackend) Observe(ctx context.Context, p *Probe, expect Expectation) (Verdict, error) {
	return observeOne(ctx, pb, p, expect)
}

// errBatchPending marks a batch slot whose observation has not resolved
// yet; abort paths replace it with the real cause, completion clears it.
var errBatchPending = errors.New("monocle: batch observation pending")

// batchWait collects one ObserveBatch's results across the event-loop /
// caller boundary: the loop thread resolves slots as verdicts arrive,
// the caller waits for completion or an abort. After abort, late
// verdicts are dropped (the caller owns the slices by then).
type batchWait struct {
	mu       sync.Mutex
	verdicts []Verdict
	errs     []error
	left     int
	aborted  bool
	done     chan struct{}
}

func newBatchWait(n int) *batchWait {
	w := &batchWait{
		verdicts: make([]Verdict, n),
		errs:     make([]error, n),
		left:     n,
		done:     make(chan struct{}),
	}
	for i := range w.errs {
		w.errs[i] = errBatchPending
	}
	return w
}

// resolve records one verdict; the last one completes the wait.
func (w *batchWait) resolve(i int, v Verdict) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted || w.errs[i] != errBatchPending {
		return
	}
	w.verdicts[i], w.errs[i] = v, nil
	w.left--
	if w.left == 0 {
		close(w.done)
	}
}

// abort fails every unresolved slot with cause. Verdicts that raced the
// abort still count — only pending slots turn into errors.
func (w *batchWait) abort(cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return
	}
	w.aborted = true
	for i, err := range w.errs {
		if err == errBatchPending {
			w.verdicts[i], w.errs[i] = VerdictUnexpected, cause
		}
	}
}

// ObserveBatch implements Backend: each probe is injected through the
// switch's control channel (PacketOut to OFPP_TABLE) and re-injected
// until a catch settles its expectation or ObserveTimeout elapses: copy
// slots at 0, 3, 9, 21 ms, ... (gaps doubling), a slot owed rather than
// sent while the newest copy is in flight (unanswered and younger than
// one RTO: the Monitor's RFC 6298 estimate, raised to the probe's own
// longest round trip plus 3 ms) and paid by a contrary catch, the next
// slot, or after the last slot a lost copy leaving flight; then silence
// (the newest copy unanswered and one RTO old), or else the last catch,
// decides (silence shows whichever outcome no catcher can see). The window waits out a copy in flight, so a verdict
// may take up to ObserveTimeout + min(RTO, ObserveTimeout).
// The whole batch marshals onto the event loop with a single post, where
// the Monitor pipelines a window of 64 observations at once. Failures
// are positional: a context abort, transport drop or close mid-batch
// fails the still-unresolved probes with its cause, while verdicts that
// already settled keep their values.
func (pb *ProxyBackend) ObserveBatch(ctx context.Context, probes []*Probe, expects []Expectation) ([]Verdict, []error) {
	n := len(probes)
	w := newBatchWait(n)
	failAll := func(err error) ([]Verdict, []error) {
		w.abort(err)
		return w.verdicts, w.errs
	}
	if n == 0 {
		return w.verdicts, w.errs
	}
	if err := ctx.Err(); err != nil {
		return failAll(err)
	}

	pb.mu.Lock()
	if pb.closed {
		pb.mu.Unlock()
		return failAll(ErrBackendClosed)
	}
	if !pb.connected {
		pb.mu.Unlock()
		return failAll(ErrBackendDisconnected)
	}
	connLost := pb.connLost
	timeout := pb.cfg.ObserveTimeout
	pb.mu.Unlock()

	// The Monitor retains the batch past an abort (its timers keep
	// driving the in-flight observations to their own deadlines), so it
	// gets private copies: the caller may reuse its slices the moment
	// ObserveBatch returns.
	ps := append([]*Probe(nil), probes...)
	exps := append([]Expectation(nil), expects...)
	ok := pb.group.post(func() {
		pb.mon.ObserveProbeBatch(ps, exps, timeout, w.resolve)
	})
	if !ok {
		return failAll(ErrBackendClosed)
	}
	select {
	case <-w.done:
	case <-ctx.Done():
		w.abort(ctx.Err())
	case <-connLost:
		// The transport dropped under the batch: resolve the pending
		// observations as unobserved now instead of letting them hang
		// out the observation timeout against a dead switch. (The
		// Monitor's own deadlines still clean up the in-flight state.)
		w.abort(ErrBackendDisconnected)
	case <-pb.closedCh:
		w.abort(ErrBackendClosed)
	case <-pb.group.doneCh():
		w.abort(ErrBackendClosed)
	}
	return w.verdicts, w.errs
}

// Epoch implements Backend: the driver's count of Apply operations.
func (pb *ProxyBackend) Epoch() uint64 {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.epoch
}

// Events implements Backend.
func (pb *ProxyBackend) Events() <-chan BackendEvent { return pb.ev.ch }

// EventDrops implements Backend.
func (pb *ProxyBackend) EventDrops() uint64 { return pb.ev.drops() }

// CatchRules returns the catching rules this switch must carry for its
// neighbours' probes (strategy 1, §6), given the deployment's reserved
// tag values.
func (pb *ProxyBackend) CatchRules(reserved []uint32) []*Rule {
	var out []*Rule
	pb.group.call(func() { out = pb.mon.CatchRules(reserved) })
	return out
}

// String identifies the driver in logs.
func (pb *ProxyBackend) String() string {
	return fmt.Sprintf("proxy-backend(S%d→%s)", pb.cfg.SwitchID, pb.cfg.SwitchAddr)
}
