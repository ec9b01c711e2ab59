package monocle

// SwitchServer: an in-process TCP OpenFlow switch over the simulated
// switch model (control-channel service times, commit pipelines, failure
// injection), the live-switch stand-in for the benchmark rig, the
// adversarial scenarios and the end-to-end tests.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// SwitchProfile captures one hardware model's measured control-plane
// behaviour (§8's switch characterization).
type SwitchProfile = switchsim.Profile

// Frame is a raw packet travelling the simulated data plane.
type Frame = switchsim.Frame

// SwitchServerConfig configures one SwitchServer.
type SwitchServerConfig struct {
	// ID is the switch's datapath id (required, non-zero).
	ID uint32
	// Ports are the switch's physical ports; each gets a host-facing
	// catcher delivering emitted frames back as the switch's own PacketIns
	// (or to Deliver when set).
	Ports []PortID
	// Profile is the simulated control-plane behaviour (zero: ideal).
	Profile SwitchProfile
	// Seed makes the simulated switch deterministic (zero: the id).
	Seed int64
	// Addr is the TCP listen address (empty: 127.0.0.1 on an OS-chosen
	// port; read the result from Addr).
	Addr string
	// Deliver, when set, receives every frame the data plane emits on a
	// physical port instead of the default self-reflection — the hook for
	// wiring multi-switch topologies where a neighbour catches the probe.
	// It is called on the server's event loop; delivering to another
	// SwitchServer is safe.
	Deliver func(port PortID, f Frame)
}

// SwitchServer is an in-process TCP OpenFlow 1.0 switch backed by a
// simulated data plane: it accepts ProxyBackend connections, drives a
// simulated switch behind the real wire codec, and reflects every frame
// the data plane emits back as a PacketIn — the downstream probe catcher
// collapsed into the server. The listener keeps accepting, so a proxy
// that drops its connection (or a restarted monocled re-dialing) finds
// the same switch state on re-dial, exactly like hardware surviving a
// monitor restart.
//
// Its fault hooks make live-switch failure modes reproducible on demand:
// FailRule/HealRule (silent data-plane rule loss, the paper's core
// fault), Drop and DropAfterCatches (switch-side TCP failures, including
// mid-sweep), and SetLossy (a data plane that eats every probe). The
// adversarial scenario fleet (Scenarios) and the record/replay e2e tests
// are built on it.
type SwitchServer struct {
	cfg  SwitchServerConfig
	ln   net.Listener
	done chan struct{}
	ctl  chan func(sw *switchsim.Switch)
	addr string

	wmu  sync.Mutex
	conn net.Conn

	closeOnce sync.Once

	// Event-loop-owned fault state (mutated only via ctl ops).
	lossy     bool
	dropAfter int
}

// StartSwitchServer starts a SwitchServer and returns once it is
// listening.
func StartSwitchServer(cfg SwitchServerConfig) (*SwitchServer, error) {
	if cfg.ID == 0 {
		return nil, fmt.Errorf("monocle: switch server id must be non-zero")
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &SwitchServer{
		cfg:  cfg,
		ln:   ln,
		done: make(chan struct{}),
		ctl:  make(chan func(sw *switchsim.Switch)),
		addr: ln.Addr().String(),
	}
	go s.serve()
	return s, nil
}

// Addr returns the server's listen address (dial it as a SwitchSpec
// Address with backend "proxy").
func (s *SwitchServer) Addr() string { return s.addr }

// ID returns the switch's datapath id.
func (s *SwitchServer) ID() uint32 { return s.cfg.ID }

// Close stops the server: the listener closes, the current connection
// drops, and the event loop exits. Idempotent.
func (s *SwitchServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.ln.Close()
		s.dropConn()
	})
	return nil
}

// FailRule silently deletes rule id from the data plane only — the
// control plane keeps every view intact, the exact hardware fault the
// paper's monitoring exists to catch. It returns once the switch's event
// loop has applied it (the next probe sees the fault).
func (s *SwitchServer) FailRule(id uint64) {
	s.do(func(sw *switchsim.Switch) { sw.FailRule(id) })
}

// HealRule lifts an injected rule failure, returning once the event loop
// has processed it so a follow-up re-install cannot race the still-armed
// suppression.
func (s *SwitchServer) HealRule(id uint64) {
	s.do(func(sw *switchsim.Switch) { sw.HealRule(id) })
}

// Drop forcibly closes the current proxy connection — a switch-side TCP
// drop mid-flight. The switch keeps its data plane and listener, so a
// reconnecting driver finds the same switch state on re-dial.
func (s *SwitchServer) Drop() { s.dropConn() }

// DropAfterCatches arms a mid-sweep connection drop: after n more caught
// probes have been delivered as PacketIns, the connection closes. Zero
// disarms. This is the flap-mid-sweep fault — the transport dies between
// one probe's observation and the next.
func (s *SwitchServer) DropAfterCatches(n int) {
	s.do(func(*switchsim.Switch) { s.dropAfter = n })
}

// SetLossy makes the data plane eat every frame it would deliver to a
// catcher (true) or restores delivery (false): every positive probe times
// out unobserved, the slow/lossy switch profile at its extreme.
func (s *SwitchServer) SetLossy(lossy bool) {
	s.do(func(*switchsim.Switch) { s.lossy = lossy })
}

// do runs fn on the event loop and waits for it.
func (s *SwitchServer) do(fn func(sw *switchsim.Switch)) {
	ack := make(chan struct{})
	select {
	case s.ctl <- func(sw *switchsim.Switch) { fn(sw); close(ack) }:
		<-ack
	case <-s.done:
	}
}

// write sends one message up the control channel; safe from any
// goroutine. A write error means the proxy side dropped: the connection
// is shed and the switch waits for a re-dial.
func (s *SwitchServer) write(msg Message, xid uint32) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.conn == nil {
		return
	}
	if err := WriteMessage(s.conn, msg, xid); err != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// dropConn sheds the current connection without touching the listener.
func (s *SwitchServer) dropConn() {
	s.wmu.Lock()
	conn := s.conn
	s.conn = nil
	s.wmu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// catch handles one frame the data plane emitted on a physical port; it
// runs on the event loop.
func (s *SwitchServer) catch(port PortID, f Frame) {
	if s.lossy {
		return
	}
	if s.cfg.Deliver != nil {
		s.cfg.Deliver(port, f)
		return
	}
	s.write(PacketIn{
		BufferID: BufferNone,
		InPort:   uint16(port),
		Reason:   ReasonAction,
		Data:     f,
	}, 0)
	if s.dropAfter > 0 {
		s.dropAfter--
		if s.dropAfter == 0 {
			s.dropConn()
		}
	}
}

// serve runs the switch's event loop on a single goroutine: network
// messages are posted through a channel, the virtual clock is driven
// against wall time, and all simulated-switch state stays
// single-threaded.
func (s *SwitchServer) serve() {
	clock := sim.New()
	profile := s.cfg.Profile
	if profile == (SwitchProfile{}) {
		profile = switchsim.Ideal()
	}
	seed := s.cfg.Seed
	if seed == 0 {
		seed = int64(s.cfg.ID)
	}
	sw := switchsim.New(s.cfg.ID, clock, profile, seed)
	sw.ToController = func(msg Message, xid uint32) { s.write(msg, xid) }
	for _, p := range s.cfg.Ports {
		port := p
		switchsim.ConnectHost(sw, port, 0, func(f Frame) { s.catch(port, f) })
	}

	msgs := make(chan func(), 64)
	conns := make(chan net.Conn)
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			select {
			case conns <- conn:
			case <-s.done:
				conn.Close()
				return
			}
		}
	}()

	var cur net.Conn
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()
	start := time.Now()
	for {
		clock.RunUntil(sim.Time(time.Since(start)))
		select {
		case <-s.done:
			return
		case conn, ok := <-conns:
			if !ok {
				return
			}
			if cur != nil {
				cur.Close()
			}
			cur = conn
			s.wmu.Lock()
			s.conn = conn
			s.wmu.Unlock()
			go s.readConn(conn, sw, msgs)
		case fn := <-s.ctl:
			clock.RunUntil(sim.Time(time.Since(start)))
			fn(sw)
		case fn := <-msgs:
			clock.RunUntil(sim.Time(time.Since(start)))
			fn()
		case <-time.After(time.Millisecond):
		}
	}
}

// readConn pumps one proxy connection's messages onto the event loop,
// returning (without tearing anything down) when the connection drops.
func (s *SwitchServer) readConn(conn net.Conn, sw *switchsim.Switch, msgs chan func()) {
	for {
		msg, xid, err := ReadMessage(conn)
		if err != nil {
			return
		}
		select {
		case msgs <- func() { sw.FromController(msg, xid) }:
		case <-s.done:
			return
		}
	}
}
