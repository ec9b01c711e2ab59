package monocle_test

// ProxyBackend end-to-end tests over real TCP sockets: a switchsim-backed
// in-process OpenFlow 1.0 switch accepts the driver's connection and runs
// a genuine simulated data plane behind the wire codec. The tests drive
// the full service path the paper deploys — install a rule over HTTP,
// confirm it with a probe injected through the control channel, sweep,
// break the hardware behind the verifier's back, and watch the alert
// surface — plus the proxied-controller path cmd/monocle uses (FlowMods
// arriving from a real controller connection fill the Monitor's expected
// table, which the Fleet then sweeps through the driver). Run under -race
// in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"monocle"
)

// tcpSimSwitch is an in-process TCP OpenFlow switch backed by a
// switchsim.Switch: messages read from the connection drive the simulated
// control plane, replies and punted PacketIns flow back over the wire,
// and every frame the data plane emits on a physical port is reflected
// back as a PacketIn — the downstream probe catcher collapsed into the
// harness (the same role the scripted switch plays in the internal proxy
// tests).
type tcpSimSwitch struct {
	t        *testing.T
	ln       net.Listener
	done     chan struct{}
	fail     chan uint64 // rule ids to delete from the data plane only
	heal     chan uint64 // rule ids whose injected failure is lifted
	healDone chan struct{}
	addr     string
	ports    []monocle.PortID
	// deliver receives every frame the data plane emits on a physical
	// port; nil reflects it back as this switch's own PacketIn.
	deliver func(port monocle.PortID, f monocle.Frame)

	wmu  sync.Mutex
	conn net.Conn
}

func startTCPSimSwitch(t *testing.T, id uint32, ports []monocle.PortID) *tcpSimSwitch {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &tcpSimSwitch{
		t:        t,
		ln:       ln,
		done:     make(chan struct{}),
		fail:     make(chan uint64, 4),
		heal:     make(chan uint64),
		healDone: make(chan struct{}),
		addr:     ln.Addr().String(),
		ports:    ports,
	}
	go s.serve(id)
	return s
}

func (s *tcpSimSwitch) stop() {
	close(s.done)
	s.ln.Close()
}

// write sends one message up this switch's control channel; safe from
// any goroutine (cross-switch deliveries race the switch's own loop).
// A write error means the proxy side dropped: the connection is shed and
// the switch waits for a re-dial.
func (s *tcpSimSwitch) write(msg monocle.Message, xid uint32) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.conn == nil {
		return
	}
	if err := monocle.WriteMessage(s.conn, msg, xid); err != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// healRule lifts an injected rule failure and returns once the switch's
// event loop has processed it, so a follow-up re-install cannot race the
// still-armed suppression.
func (s *tcpSimSwitch) healRule(id uint64) {
	s.heal <- id
	<-s.healDone
}

// drop forcibly closes the current proxy connection — a switch-side TCP
// drop mid-flight. The switch keeps its data plane and listener, so a
// reconnecting driver finds the same switch state on re-dial. The switch
// records an accepted connection on its own loop, so a drop right after
// the proxy's dial first waits for that connection to exist.
func (s *tcpSimSwitch) drop() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.wmu.Lock()
		conn := s.conn
		s.conn = nil
		s.wmu.Unlock()
		if conn != nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatal("drop: the switch never accepted a connection")
		}
		time.Sleep(time.Millisecond)
	}
}

// catchFrame surfaces a caught data-plane frame as this switch's
// PacketIn — what its catching rule would do with a neighbour's probe.
func (s *tcpSimSwitch) catchFrame(port monocle.PortID, f monocle.Frame) {
	s.write(monocle.PacketIn{
		BufferID: monocle.BufferNone,
		InPort:   uint16(port),
		Reason:   monocle.ReasonAction,
		Data:     f,
	}, 0)
}

// serve runs the switch's event loop on a single goroutine: network
// messages are posted through a channel, the virtual clock is driven
// against wall time, and all switchsim state stays single-threaded. The
// listener keeps accepting — a proxy that drops its connection (or a
// restarted monocled re-dialing the same switch) gets the same simulated
// switch back, data-plane faults and all, exactly like real hardware
// surviving a monitor restart.
func (s *tcpSimSwitch) serve(id uint32) {
	clock := monocle.NewSim()
	sw := monocle.NewSimSwitch(id, clock, monocle.ProfileIdeal(), int64(id))
	sw.ToController = func(msg monocle.Message, xid uint32) { s.write(msg, xid) }
	// Collapse the downstream catchers: a frame emitted on any physical
	// port goes to the configured deliverer (a neighbour harness, for
	// cross-switch topologies) or straight back as this switch's own
	// PacketIn, as a catching rule would deliver it.
	for _, p := range s.ports {
		port := p
		monocle.ConnectHost(sw, port, 0, func(f monocle.Frame) {
			if s.deliver != nil {
				s.deliver(port, f)
				return
			}
			s.catchFrame(port, f)
		})
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
		clock.RunUntil(monocle.Time(time.Since(start)))
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
		case id := <-s.fail:
			// Behind-the-scenes hardware fault: the data plane loses the
			// rule, every control-plane view stays intact.
			sw.FailRule(id)
		case id := <-s.heal:
			// Lift the injected failure so a control-plane re-install can
			// land again (switchsim suppresses commits of failed ids).
			sw.HealRule(id)
			s.healDone <- struct{}{}
		case fn := <-msgs:
			clock.RunUntil(monocle.Time(time.Since(start)))
			fn()
		case <-time.After(time.Millisecond):
		}
	}
}

// readConn pumps one proxy connection's messages onto the event loop,
// returning (without tearing anything down) when the connection drops.
func (s *tcpSimSwitch) readConn(conn net.Conn, sw *monocle.SimSwitch, msgs chan func()) {
	for {
		msg, xid, err := monocle.ReadMessage(conn)
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

// TestProxyBackendServiceEndToEnd drives a live TCP switch through the
// whole monocled service: add the proxy-backed switch over HTTP, install
// a rule through the dynamic-update path (the confirmation probe crosses
// the real wire), sweep it healthy, delete it from the hardware behind
// the verifier's back, and require exactly the right failing alert.
func TestProxyBackendServiceEndToEnd(t *testing.T) {
	ports := []monocle.PortID{1, 2, 3, 4}
	sw := startTCPSimSwitch(t, 1, ports)
	defer sw.stop()

	svc := monocle.NewService(
		monocle.WithWorkers(1),
		monocle.WithDetectionTimeout(500*time.Millisecond),
	)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path string, body any, out any) (int, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if out != nil && resp.StatusCode < 300 {
			if err := json.Unmarshal(buf.Bytes(), out); err != nil {
				t.Fatalf("POST %s: decoding %q: %v", path, buf.String(), err)
			}
		}
		return resp.StatusCode, buf.String()
	}

	// The proxy-backed switch: every port's catcher is the switch itself
	// (the harness reflects emitted frames back as PacketIns).
	spec := monocle.SwitchSpec{
		ID:      1,
		Backend: "proxy",
		Address: sw.addr,
		Ports:   []uint16{1, 2, 3, 4},
		Peers:   map[uint16]uint32{1: 1, 2: 1, 3: 1, 4: 1},
	}
	if status, body := post("/switches", spec, nil); status != http.StatusCreated {
		t.Fatalf("adding proxy switch: status %d body %s", status, body)
	}

	// Install a rule through the dynamic-update confirmation path: the
	// FlowMod and the probe both cross the TCP wire, and the verdict must
	// come back confirmed from the live data plane.
	rs := monocle.RuleSpec{ID: 7, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.1.0/24"},
		Actions: []monocle.ActionSpec{{Output: 2}}}
	var reply monocle.UpdateReply
	status, body := post("/switches/1/rules", monocle.RuleOp{Op: "add", Rule: &rs}, &reply)
	if status != http.StatusOK {
		t.Fatalf("add rule: status %d body %s", status, body)
	}
	if reply.Verdict != "confirmed" {
		t.Fatalf("add verdict = %q, want confirmed (reply %+v)", reply.Verdict, reply)
	}

	// A healthy sweep: the steady-state probe is injected over the wire,
	// caught, and judged confirmed — no alerts.
	var round struct {
		Rules  int             `json:"rules"`
		Alerts []monocle.Alert `json:"alerts"`
	}
	if status, body := post("/sweep", struct{}{}, &round); status != http.StatusOK {
		t.Fatalf("POST /sweep: %d %s", status, body)
	}
	if round.Rules != 1 || len(round.Alerts) != 0 {
		t.Fatalf("healthy sweep: %+v", round)
	}

	// A data-plane op naming a rule the expected table does not know
	// cannot be addressed safely on a live switch (the driver would have
	// to guess a match; a wildcard guess would wipe the table). It must
	// be rejected, and the installed rule must survive.
	if status, body := post("/switches/1/rules",
		monocle.RuleOp{Op: "delete", ID: 999, Dataplane: "actual"}, nil); status != http.StatusBadRequest {
		t.Fatalf("unresolved dataplane delete: status %d body %s, want 400", status, body)
	}
	if status, body := post("/sweep", struct{}{}, &round); status != http.StatusOK {
		t.Fatalf("POST /sweep: %d %s", status, body)
	}
	if round.Rules != 1 || len(round.Alerts) != 0 {
		t.Fatalf("sweep after rejected unresolved delete: %+v", round)
	}

	// The hardware loses the rule behind everyone's back (switchsim's
	// steady-state failure injection, §8.1.1). The next sweep's probe
	// falls through to the table miss, silence is judged, and exactly one
	// failing alert must surface.
	sw.fail <- 7
	deadline := time.Now().Add(30 * time.Second)
	var alerts []monocle.Alert
	for time.Now().Before(deadline) {
		if status, body := post("/sweep", struct{}{}, &round); status != http.StatusOK {
			t.Fatalf("POST /sweep: %d %s", status, body)
		}
		if len(round.Alerts) > 0 {
			alerts = round.Alerts
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(alerts) != 1 {
		t.Fatalf("want exactly one alert, got %+v", alerts)
	}
	if a := alerts[0]; a.Type != monocle.AlertRuleFailing || a.SwitchID != 1 || a.Rule != 7 {
		t.Fatalf("alert identifies the wrong divergence: %+v", a)
	}

	// Deleting the rule everywhere is an intentional change: the delete
	// probe confirms by absence and the rule leaves the diff engine with
	// a recovery-free silence (it is gone, not failing).
	status, body = post("/switches/1/rules", monocle.RuleOp{Op: "delete", ID: 7}, &reply)
	if status != http.StatusOK {
		t.Fatalf("delete rule: status %d body %s", status, body)
	}
	if reply.Verdict != "absent" {
		t.Fatalf("delete verdict = %q, want absent", reply.Verdict)
	}
}

// TestProxyBackendCrossSwitchRouting pins that a Service's proxy
// backends share one event loop and probe-routing Multiplexer: switch
// 1's probes exit toward switch 2 (its peer map says port 2 leads
// there), the frame is caught at switch 2's proxy as a PacketIn, and the
// Multiplexer must route it back to switch 1's Monitor — a confirmation
// that only works when both backends live in the same ProxyGroup.
func TestProxyBackendCrossSwitchRouting(t *testing.T) {
	ports := []monocle.PortID{1, 2}
	sw2 := startTCPSimSwitch(t, 2, ports)
	defer sw2.stop()
	sw1 := startTCPSimSwitch(t, 1, ports)
	defer sw1.stop()
	// Switch 1's emitted frames land at switch 2 (the wire between
	// them); switch 2's own emissions self-catch.
	sw1.deliver = func(port monocle.PortID, f monocle.Frame) { sw2.catchFrame(port, f) }

	svc := monocle.NewService(
		monocle.WithWorkers(1),
		monocle.WithDetectionTimeout(500*time.Millisecond),
	)
	defer svc.Close()

	for _, spec := range []monocle.SwitchSpec{
		{ID: 1, Backend: "proxy", Address: sw1.addr, Ports: []uint16{1, 2},
			Peers: map[uint16]uint32{1: 2, 2: 2}}, // catcher: switch 2
		{ID: 2, Backend: "proxy", Address: sw2.addr, Ports: []uint16{1, 2},
			Peers: map[uint16]uint32{1: 2, 2: 2}},
	} {
		if _, err := svc.AddSwitch(spec); err != nil {
			t.Fatal(err)
		}
	}

	// Installing on switch 1 only resolves if the probe caught at switch
	// 2's proxy routes back across the shared Multiplexer.
	reply, err := svc.ApplyRule(1, monocle.RuleOp{Op: "add", Rule: &monocle.RuleSpec{
		ID: 5, Priority: 10,
		Match:   map[string]string{"dl_type": "0x800", "nw_dst": "10.0.2.0/24"},
		Actions: []monocle.ActionSpec{{Output: 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Verdict != "confirmed" {
		t.Fatalf("cross-switch confirmation verdict = %q, want confirmed (probes are not routing between the proxies)", reply.Verdict)
	}
}

// TestProxyBackendControllerPath exercises the cmd/monocle deployment
// shape as a library user: a controller connects to the ProxyBackend's
// listen side and installs a rule with a FlowMod + barrier; the Monitor
// intercepts it, confirms it against the live data plane (gating the
// barrier), and the rule's steady-state probe, generated by a standalone
// Verifier holding the same rule, is then observed over the wire.
func TestProxyBackendControllerPath(t *testing.T) {
	ports := []monocle.PortID{1, 2}
	sw := startTCPSimSwitch(t, 3, ports)
	defer sw.stop()

	be := monocle.NewProxyBackend(monocle.ProxyConfig{
		SwitchID:       3,
		SwitchAddr:     sw.addr,
		Listen:         "127.0.0.1:0",
		ObserveTimeout: 500 * time.Millisecond,
	},
		monocle.WithPorts(1, 2),
		monocle.WithPeers(map[monocle.PortID]uint32{1: 3, 2: 3}),
	)
	if err := be.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	ctrlAddr := be.ControllerAddr()
	if ctrlAddr == "" {
		t.Fatal("no controller listen address")
	}
	ctrl, err := net.Dial("tcp", ctrlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// The controller installs one rule and fences it with a barrier; the
	// Monitor answers the barrier only once the rule is provably in the
	// data plane.
	m := monocle.MatchAll().
		WithExact(monocle.EthType, monocle.EthTypeIPv4).
		WithExact(monocle.IPSrc, 10<<24|42)
	wm, err := monocle.FromMatch(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := monocle.WriteMessage(ctrl, &monocle.FlowMod{
		Match: wm, Cookie: 42, Command: monocle.FCAdd, Priority: 10,
		BufferID: monocle.BufferNone, OutPort: monocle.PortNone,
		Actions: []monocle.WireAction{monocle.OutputAction(2)},
	}, 100); err != nil {
		t.Fatal(err)
	}
	if err := monocle.WriteMessage(ctrl, monocle.BarrierRequest{}, 101); err != nil {
		t.Fatal(err)
	}
	barrier := make(chan uint32, 1)
	go func() {
		for {
			msg, xid, err := monocle.ReadMessage(ctrl)
			if err != nil {
				return
			}
			switch msg.(type) {
			case monocle.BarrierReply, *monocle.BarrierReply:
				barrier <- xid
				return
			}
		}
	}()
	select {
	case xid := <-barrier:
		if xid != 101 {
			t.Fatalf("barrier reply xid = %d", xid)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("barrier never released: rule not confirmed in the data plane")
	}

	// A standalone Verifier holding the same rule generates its
	// steady-state probe; the proxy observes it over the wire.
	v, err := monocle.NewVerifier(
		monocle.WithProbeTag(3),
		monocle.WithPorts(1, 2),
		monocle.WithPeers(map[monocle.PortID]uint32{1: 3, 2: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Install(&monocle.Rule{
		ID: 42, Priority: 10, Match: m, Actions: []monocle.Action{monocle.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	res := v.Sweep(context.Background())
	if len(res) != 1 || res[0].Rule.ID != 42 {
		t.Fatalf("sweep of the same table: %+v", res)
	}
	if res[0].Err != nil || res[0].Probe == nil {
		t.Fatalf("sweep result: %+v", res[0])
	}
	verdict, err := be.Observe(context.Background(), res[0].Probe, monocle.ExpectPresent)
	if err != nil || verdict != monocle.VerdictConfirmed {
		t.Fatalf("observing the swept probe: %v, %v", verdict, err)
	}

	// Lifecycle events surfaced along the way.
	seen := map[monocle.BackendEventType]bool{}
	for {
		select {
		case ev := <-be.Events():
			seen[ev.Type] = true
			if ev.Type == monocle.BackendRuleConfirmed && ev.Rule != 42 {
				t.Fatalf("confirmed the wrong rule: %+v", ev)
			}
		default:
			if !seen[monocle.BackendConnected] || !seen[monocle.BackendControllerConnected] || !seen[monocle.BackendRuleConfirmed] {
				t.Fatalf("missing lifecycle events: %+v", seen)
			}
			return
		}
	}
}
