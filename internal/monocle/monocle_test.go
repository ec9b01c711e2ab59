package monocle

import (
	"context"
	"testing"
	"time"

	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/openflow"
	"monocle/internal/packet"
	"monocle/internal/probe"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// lineTestbed is a 3-switch line S1 -p1--p1- S2 -p2--p1- S3 with the middle
// switch monitored; S1 and S3 run pass-through Monitors whose only job is
// catching probes.
type lineTestbed struct {
	sim    *sim.Sim
	sw     [4]*switchsim.Switch // 1-indexed
	mon    [4]*Monitor
	mux    *Multiplexer
	toCtrl []openflow.Message // messages the monitored proxy sent upstream
	xids   []uint32
}

func newLineTestbed(t *testing.T, profile switchsim.Profile, cfgEdit func(*Config)) *lineTestbed {
	t.Helper()
	tb := &lineTestbed{sim: sim.New(), mux: NewMultiplexer()}
	for i := 1; i <= 3; i++ {
		tb.sw[i] = switchsim.New(uint32(i), tb.sim, profile, int64(i))
	}
	switchsim.Connect(tb.sw[1], 1, tb.sw[2], 1, 100*time.Microsecond)
	switchsim.Connect(tb.sw[2], 2, tb.sw[3], 1, 100*time.Microsecond)

	ports := map[int][]flowtable.PortID{1: {1}, 2: {1, 2}, 3: {1}}
	peers := map[int]map[flowtable.PortID]uint32{
		1: {1: 2},
		2: {1: 1, 2: 3},
		3: {1: 2},
	}
	reserved := []uint32{1, 2, 3}
	for i := 1; i <= 3; i++ {
		cfg := DefaultConfig(uint32(i))
		cfg.Ports = ports[i]
		cfg.PortPeer = peers[i]
		if i == 2 && cfgEdit != nil {
			cfgEdit(&cfg)
		}
		mon := New(tb.sim, cfg)
		tb.mon[i] = mon
		tb.mux.Register(mon)
		sw := tb.sw[i]
		mon.ToSwitch = func(msg openflow.Message, xid uint32) { sw.FromController(msg, xid) }
		sw.ToController = func(msg openflow.Message, xid uint32) { mon.OnSwitchMessage(msg, xid) }
		if i == 2 {
			mon.ToController = func(msg openflow.Message, xid uint32) {
				tb.toCtrl = append(tb.toCtrl, msg)
				tb.xids = append(tb.xids, xid)
			}
		} else {
			mon.ToController = func(openflow.Message, uint32) {}
		}
		// Catching rules: preinstalled in both the data plane and the
		// monitor's expected view.
		for _, cr := range mon.CatchRules(reserved) {
			if err := mon.Preinstall(cr); err != nil {
				t.Fatalf("preinstall: %v", err)
			}
			if err := sw.DataTable().Insert(cr.Clone()); err != nil {
				t.Fatalf("catch insert: %v", err)
			}
		}
	}
	return tb
}

// addFM builds a FlowMod add for a /32 source flow forwarded on port out.
func addFM(t *testing.T, cookie uint64, prio uint16, srcIP uint64, out uint16) *openflow.FlowMod {
	t.Helper()
	m := flowtable.MatchAll().
		WithExact(header.EthType, header.EthTypeIPv4).
		WithExact(header.IPSrc, srcIP)
	wm, err := openflow.FromMatch(m)
	if err != nil {
		t.Fatal(err)
	}
	var acts []openflow.Action
	if out != 0 {
		acts = []openflow.Action{openflow.OutputAction(out)}
	}
	return &openflow.FlowMod{
		Match: wm, Cookie: cookie, Command: openflow.FCAdd, Priority: prio,
		BufferID: openflow.BufferNone, OutPort: openflow.PortNone, Actions: acts,
	}
}

func ip4(a, b, c, d uint64) uint64 { return a<<24 | b<<16 | c<<8 | d }

func TestDynamicAddConfirmation(t *testing.T) {
	var confirmedAt sim.Time = -1
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) {
			if ruleID == 100 {
				confirmedAt = at
			}
		}
	})
	tb.mon[2].OnControllerMessage(addFM(t, 100, 10, ip4(10, 0, 0, 1), 2), 1)
	tb.sim.RunUntil(2 * time.Second)
	if confirmedAt < 0 {
		t.Fatalf("rule never confirmed; stats=%+v sw=%+v", tb.mon[2].Stats, tb.sw[2].Stats)
	}
	// Confirmation cannot precede the data plane commit.
	if confirmedAt < switchsim.Ideal().CommitService {
		t.Fatalf("confirmed at %v, before any commit could land", confirmedAt)
	}
	if _, ok := tb.sw[2].DataTable().Get(100); !ok {
		t.Fatal("rule not in data plane")
	}
	if tb.mon[2].Stats.ProbesSent == 0 || tb.mon[2].Stats.Confirmations != 1 {
		t.Fatalf("stats %+v", tb.mon[2].Stats)
	}
}

// TestBarrierGatedOnDataplane: with a premature-acking switch, the barrier
// reply must still reach the controller only after the rule is truly in
// the data plane (§8.1.2).
func TestBarrierGatedOnDataplane(t *testing.T) {
	tb := newLineTestbed(t, switchsim.HP5406zl(), nil)
	var confirmedAt sim.Time = -1
	tb.mon[2].Cfg.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirmedAt = at }

	tb.mon[2].OnControllerMessage(addFM(t, 200, 10, ip4(10, 0, 0, 2), 2), 7)
	tb.mon[2].OnControllerMessage(openflow.BarrierRequest{}, 8)
	tb.sim.RunUntil(5 * time.Second)

	var barrierAt sim.Time = -1
	for i, msg := range tb.toCtrl {
		if _, ok := msg.(openflow.BarrierReply); ok && tb.xids[i] == 8 {
			barrierAt = confirmedAt // reply happens at/after confirmation
		}
	}
	if barrierAt < 0 {
		t.Fatalf("no barrier reply; msgs=%v", tb.toCtrl)
	}
	if confirmedAt < tb.sw[2].Profile.CommitService {
		t.Fatalf("confirmed before commit possible: %v", confirmedAt)
	}
}

// TestBarrierWithoutMonitorWouldLie sanity-checks the premise: the HP
// profile acks barriers before the data plane commit.
func TestBarrierWithoutMonitorWouldLie(t *testing.T) {
	s := sim.New()
	sw := switchsim.New(1, s, switchsim.HP5406zl(), 1)
	var barrierAt sim.Time = -1
	committed := false
	var commitAt sim.Time
	sw.ToController = func(msg openflow.Message, xid uint32) {
		if _, ok := msg.(openflow.BarrierReply); ok {
			barrierAt = s.Now()
		}
	}
	fm := addFM(t, 1, 10, ip4(10, 9, 9, 9), 2)
	sw.FromController(fm, 1)
	sw.FromController(openflow.BarrierRequest{}, 2)
	for s.Step() {
		if _, ok := sw.DataTable().Get(1); ok && !committed {
			committed = true
			commitAt = s.Now()
		}
	}
	if barrierAt < 0 || !committed {
		t.Fatalf("barrier=%v committed=%v", barrierAt, committed)
	}
	if barrierAt >= commitAt {
		t.Fatalf("premature-ack switch should ack (%v) before commit (%v)", barrierAt, commitAt)
	}
}

// TestSteadyStateDetectsFailedRule: fail a rule from the data plane and
// expect an alarm within the cycle period plus the alarm timeout.
func TestSteadyStateDetectsFailedRule(t *testing.T) {
	var alarmID uint64
	var alarmAt sim.Time = -1
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnAlarm = func(ruleID uint64, at sim.Time) {
			if alarmAt < 0 {
				alarmID, alarmAt = ruleID, at
			}
		}
	})
	// Install 20 rules.
	for i := 0; i < 20; i++ {
		tb.mon[2].OnControllerMessage(addFM(t, uint64(300+i), 10, ip4(10, 0, 1, uint64(i)), 2), uint32(i))
	}
	tb.sim.RunUntil(time.Second)
	if got := tb.mon[2].Stats.Confirmations; got != 20 {
		t.Fatalf("confirmations=%d stats=%+v", got, tb.mon[2].Stats)
	}
	tb.mon[2].StartSteadyState()
	tb.sim.RunUntil(1500 * time.Millisecond) // let a clean cycle pass
	if alarmAt >= 0 {
		t.Fatalf("false alarm on rule %d at %v", alarmID, alarmAt)
	}
	failAt := tb.sim.Now()
	tb.sw[2].FailRule(310)
	tb.sim.RunUntil(failAt + 5*time.Second)
	if alarmAt < 0 {
		t.Fatalf("failure not detected; stats=%+v", tb.mon[2].Stats)
	}
	if alarmID != 310 {
		t.Fatalf("alarmed wrong rule %d", alarmID)
	}
	detection := alarmAt - failAt
	// Cycle over ~20 rules at 500/s is 40ms; alarm timeout is 150ms.
	if detection > 400*time.Millisecond {
		t.Fatalf("detection took %v", detection)
	}
	if detection < tb.mon[2].Cfg.AlarmTimeout {
		t.Fatalf("detection %v faster than the alarm timeout — suspicious", detection)
	}
}

// TestSteadyStateHealthyNoAlarms: a healthy switch never alarms.
func TestSteadyStateHealthyNoAlarms(t *testing.T) {
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	for i := 0; i < 10; i++ {
		tb.mon[2].OnControllerMessage(addFM(t, uint64(400+i), 10, ip4(10, 0, 2, uint64(i)), 2), uint32(i))
	}
	tb.sim.RunUntil(time.Second)
	tb.mon[2].StartSteadyState()
	tb.sim.RunUntil(4 * time.Second)
	if tb.mon[2].Stats.Alarms != 0 {
		t.Fatalf("false alarms: %+v", tb.mon[2].Stats)
	}
	if tb.mon[2].Stats.ProbesSent < 100 {
		t.Fatalf("prober barely ran: %+v", tb.mon[2].Stats)
	}
}

// TestDropRuleConfirmedBySilence: adding a drop rule (without
// drop-postponing) is confirmed negatively.
func TestDropRuleConfirmedBySilence(t *testing.T) {
	confirmed := false
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) {
			if ruleID == 500 {
				confirmed = true
			}
		}
	})
	// Underlying forwarding rule so the drop rule is distinguishable.
	tb.mon[2].OnControllerMessage(addFM(t, 501, 5, ip4(10, 0, 3, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	tb.mon[2].OnControllerMessage(addFM(t, 500, 10, ip4(10, 0, 3, 1), 0), 2)
	tb.sim.RunUntil(3 * time.Second)
	if !confirmed {
		t.Fatalf("drop rule unconfirmed; stats=%+v", tb.mon[2].Stats)
	}
}

// TestDropPostponing: with §4.3 enabled the drop rule is first installed
// as a marked-forward rule, confirmed positively, then swapped to a real
// drop.
func TestDropPostponing(t *testing.T) {
	confirmed := false
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.DropPostpone = true
		c.DropNeighborPort = 2
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) {
			if ruleID == 600 {
				confirmed = true
			}
		}
	})
	tb.mon[2].OnControllerMessage(addFM(t, 601, 5, ip4(10, 0, 4, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	tb.mon[2].OnControllerMessage(addFM(t, 600, 10, ip4(10, 0, 4, 1), 0), 2)
	tb.sim.RunUntil(4 * time.Second)
	if !confirmed {
		t.Fatalf("postponed drop unconfirmed; stats=%+v", tb.mon[2].Stats)
	}
	r, ok := tb.sw[2].DataTable().Get(600)
	if !ok {
		t.Fatal("rule missing from data plane")
	}
	if !r.IsDrop() {
		t.Fatalf("rule not swapped to a real drop: %v", r)
	}
}

// TestOverlapQueuing: an update overlapping an unconfirmed one is held
// back until the first confirms (§4.2).
func TestOverlapQueuing(t *testing.T) {
	var order []uint64
	tb := newLineTestbed(t, switchsim.HP5406zl(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { order = append(order, ruleID) }
	})
	// Rule A: 10.0.5.0/24 → port 2 (low prio); rule B overlaps (host in
	// the subnet, higher prio, different port).
	mA := flowtable.MatchAll().
		WithExact(header.EthType, header.EthTypeIPv4).
		With(header.IPSrc, header.Prefix(header.IPSrc, ip4(10, 0, 5, 0), 24))
	wmA, _ := openflow.FromMatch(mA)
	fmA := &openflow.FlowMod{Match: wmA, Cookie: 700, Command: openflow.FCAdd, Priority: 5,
		BufferID: openflow.BufferNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{openflow.OutputAction(2)}}
	fmB := addFM(t, 701, 10, ip4(10, 0, 5, 7), 1)

	tb.mon[2].OnControllerMessage(fmA, 1)
	tb.mon[2].OnControllerMessage(fmB, 2)
	if tb.mon[2].Stats.QueuedOverlaps != 1 {
		t.Fatalf("expected B to queue: %+v", tb.mon[2].Stats)
	}
	tb.sim.RunUntil(10 * time.Second)
	if len(order) != 2 || order[0] != 700 || order[1] != 701 {
		t.Fatalf("confirmation order %v; stats=%+v", order, tb.mon[2].Stats)
	}
}

// TestDeleteConfirmation: deleting a rule is confirmed when probes start
// hitting the underlying rule.
func TestDeleteConfirmation(t *testing.T) {
	var confirms []uint64
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirms = append(confirms, ruleID) }
	})
	// Base rule on port 2 and override on port 1.
	tb.mon[2].OnControllerMessage(addFM(t, 800, 5, ip4(10, 0, 6, 1), 2), 1)
	tb.sim.RunUntil(500 * time.Millisecond)
	fmHigh := addFM(t, 801, 10, ip4(10, 0, 6, 1), 1)
	tb.mon[2].OnControllerMessage(fmHigh, 2)
	tb.sim.RunUntil(time.Second)

	del := *fmHigh
	del.Command = openflow.FCDeleteStrict
	del.Actions = nil
	tb.mon[2].OnControllerMessage(&del, 3)
	tb.sim.RunUntil(3 * time.Second)

	want := []uint64{800, 801, 801}
	if len(confirms) != 3 {
		t.Fatalf("confirms %v; stats=%+v", confirms, tb.mon[2].Stats)
	}
	for i := range want {
		if confirms[i] != want[i] {
			t.Fatalf("confirms %v", confirms)
		}
	}
	if _, ok := tb.sw[2].DataTable().Get(801); ok {
		t.Fatal("rule still in data plane")
	}
	if _, ok := tb.mon[2].Expected().Get(801); ok {
		t.Fatal("rule still in expected table")
	}
}

// TestModifyConfirmation: modifying a rule's output port is confirmed via
// the altered-table probe (§4.1).
func TestModifyConfirmation(t *testing.T) {
	var confirms []uint64
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirms = append(confirms, ruleID) }
	})
	fm := addFM(t, 900, 10, ip4(10, 0, 7, 1), 2)
	tb.mon[2].OnControllerMessage(fm, 1)
	tb.sim.RunUntil(time.Second)

	mod := *fm
	mod.Command = openflow.FCModifyStrict
	mod.Actions = []openflow.Action{openflow.OutputAction(1)}
	tb.mon[2].OnControllerMessage(&mod, 2)
	tb.sim.RunUntil(3 * time.Second)

	if len(confirms) != 2 || confirms[1] != 900 {
		t.Fatalf("confirms %v; stats=%+v", confirms, tb.mon[2].Stats)
	}
	r, _ := tb.sw[2].DataTable().Get(900)
	if r == nil || len(r.ForwardingSet()) != 1 || r.ForwardingSet()[0] != 1 {
		t.Fatalf("dataplane rule after modify: %v", r)
	}
}

// TestProductionPacketInPassthrough: non-probe PacketIns go to the
// controller untouched.
func TestProductionPacketInPassthrough(t *testing.T) {
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	tb.sw[2].DataTable().Miss = flowtable.MissController
	var h header.Header
	h.Set(header.EthType, header.EthTypeIPv4)
	h.Set(header.VlanID, header.VlanNone)
	h.Set(header.IPProto, header.ProtoUDP)
	h.Set(header.IPSrc, ip4(192, 168, 0, 1))
	frame, err := packet.Craft(h, []byte("user payload"))
	if err != nil {
		t.Fatal(err)
	}
	tb.sw[2].InjectFrame(1, frame)
	tb.sim.RunUntil(100 * time.Millisecond)
	found := false
	for _, msg := range tb.toCtrl {
		if _, ok := msg.(*openflow.PacketIn); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("production PacketIn not forwarded; got %v", tb.toCtrl)
	}
}

// TestCatchRuleGeneration: the right set of catch rules per switch.
func TestCatchRuleGeneration(t *testing.T) {
	cfg := DefaultConfig(2)
	m := New(sim.New(), cfg)
	rules := m.CatchRules([]uint32{1, 2, 3, 9})
	if len(rules) != 3 {
		t.Fatalf("want 3 catch rules, got %d", len(rules))
	}
	for _, r := range rules {
		if r.Match[header.VlanID].Covers(2) {
			t.Fatal("catch rule must not catch own probes")
		}
		if r.ForwardingSet()[0] != flowtable.PortController {
			t.Fatal("catch must punt to controller")
		}
	}
	cfg2 := DefaultConfig(2)
	cfg2.DropPostpone = true
	m2 := New(sim.New(), cfg2)
	rules2 := m2.CatchRules([]uint32{1, 2})
	last := rules2[len(rules2)-1]
	if !last.IsDrop() || last.Priority != dropPriority {
		t.Fatalf("drop-postpone catch set missing special drop: %v", last)
	}
}

// ruleProbe returns the monitored switch's current probe for rule id.
func ruleProbe(t *testing.T, tb *lineTestbed, id uint64) *probe.Probe {
	t.Helper()
	for _, res := range tb.mon[2].cache.GenerateAll(context.Background(), tb.mon[2].updateEpoch, 1) {
		if res.Probe != nil && res.Probe.RuleID == id {
			return res.Probe
		}
	}
	t.Fatalf("no probe for rule %d", id)
	return nil
}

// observeOnce runs one observation to its end and returns its verdict.
func observeOnce(t *testing.T, tb *lineTestbed, p *probe.Probe, expect packet.Expectation, timeout time.Duration) Verdict {
	t.Helper()
	var got Verdict
	done := false
	tb.mon[2].observeProbe(p, expect, timeout, func(v Verdict) { got, done = v, true })
	tb.sim.RunUntil(tb.sim.Now() + 2*sim.Time(timeout))
	if !done {
		t.Fatal("observation never resolved")
	}
	return got
}

// TestDeleteStaleCatchThenSilence: a delete observation whose first copy
// beats the delete and catches the Present outcome, and whose later
// copies fall through to a drop, resolves Absent — the stale catch must
// not outlive the silence that follows it.
func TestDeleteStaleCatchThenSilence(t *testing.T) {
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	tb.mon[2].OnControllerMessage(addFM(t, 100, 10, ip4(10, 0, 9, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	p := ruleProbe(t, tb, 100)
	if !p.Absent.Drop {
		t.Fatalf("test premise: the deleted rule's probe must fall through to a drop, got %+v", p.Absent)
	}
	// The data plane loses the rule one millisecond in: after the first
	// copy's round trip, before the second copy.
	tb.sim.After(time.Millisecond, func() { tb.sw[2].FailRule(100) })
	caught := tb.mon[2].Stats.ProbesCaught
	if v := observeOnce(t, tb, p, packet.ExpectAbsent, 200*time.Millisecond); v != VerdictAbsent {
		t.Fatalf("verdict %v, want %v", v, VerdictAbsent)
	}
	if tb.mon[2].Stats.ProbesCaught != caught+1 {
		t.Fatalf("want exactly the one stale catch, got %d", tb.mon[2].Stats.ProbesCaught-caught)
	}
}

// TestLateContraryCatchIsNotSilence: with the catcher link slower than
// the re-injection gap, every contrary catch arrives after later copies
// have gone out, so the newest copies are always unanswered when the
// window closes. The observation measures those late round trips and
// keeps its contrary verdict instead of reading them as silence: a
// faulted drop rule is not confirmed, and a delete that never took
// effect is not reported absent. The steady prober alarms on the faulted
// drop rule.
func TestLateContraryCatchIsNotSilence(t *testing.T) {
	var alarms []uint64
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnAlarm = func(ruleID uint64, at sim.Time) { alarms = append(alarms, ruleID) }
	})
	tb.mon[2].OnControllerMessage(addFM(t, 501, 5, ip4(10, 0, 3, 1), 2), 1)
	tb.mon[2].OnControllerMessage(addFM(t, 502, 5, ip4(10, 0, 4, 1), 2), 2)
	tb.mon[2].OnControllerMessage(addFM(t, 503, 5, ip4(10, 0, 5, 1), 1), 4)
	tb.sim.RunUntil(time.Second)
	tb.mon[2].OnControllerMessage(addFM(t, 500, 10, ip4(10, 0, 3, 1), 0), 3)
	tb.sim.RunUntil(2 * time.Second)
	drop, kept := ruleProbe(t, tb, 500), ruleProbe(t, tb, 502)
	if !drop.Present.Drop || !kept.Absent.Drop {
		t.Fatalf("test premise: rule 500 must be a drop and rule 502 must fall through to one, got %+v and %+v", drop.Present, kept.Absent)
	}
	tb.sw[2].FailRule(500)
	gap := minRTO
	for _, delay := range []time.Duration{gap + 2*time.Millisecond, 4 * gap, 20 * gap} {
		switchsim.Connect(tb.sw[2], 2, tb.sw[3], 1, delay)
		if v := observeOnce(t, tb, drop, packet.ExpectPresent, 200*time.Millisecond); v != VerdictAbsent {
			t.Fatalf("link delay %v: faulted drop rule verdict %v, want %v", delay, v, VerdictAbsent)
		}
		if v := observeOnce(t, tb, kept, packet.ExpectAbsent, 200*time.Millisecond); v != VerdictConfirmed {
			t.Fatalf("link delay %v: undeleted rule verdict %v, want %v", delay, v, VerdictConfirmed)
		}
	}
	// Probes caught fast through port 1 all along keep the Monitor's RTO
	// near minRTO; the drop rule's own catches, still 60 ms away, must not
	// read as silence.
	fast := ruleProbe(t, tb, 503)
	for at := time.Duration(0); at < 400*time.Millisecond; at += time.Millisecond {
		tb.sim.After(at, func() { tb.mon[2].observeProbe(fast, packet.ExpectPresent, 0, func(Verdict) {}) })
	}
	tb.sim.RunUntil(tb.sim.Now() + 100*time.Millisecond)
	if v := observeOnce(t, tb, drop, packet.ExpectPresent, 150*time.Millisecond); v != VerdictAbsent {
		t.Fatalf("beside fast catches: faulted drop rule verdict %v, want %v", v, VerdictAbsent)
	}
	tb.mon[2].StartSteadyState()
	tb.sim.RunUntil(tb.sim.Now() + time.Second)
	if len(alarms) == 0 || alarms[0] != 500 {
		t.Fatalf("steady alarms %v, want rule 500", alarms)
	}
}

// TestHostFacingRuleNoSteadyAlarm: a healthy rule forwarding out a
// host-facing port is confirmed by silence on the dynamic path, and the
// steady prober agrees: no alarm.
func TestHostFacingRuleNoSteadyAlarm(t *testing.T) {
	var confirms, alarms []uint64
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.Ports = append(c.Ports, 3)
		c.PortPeer[3] = HostPeer
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirms = append(confirms, ruleID) }
		c.OnAlarm = func(ruleID uint64, at sim.Time) { alarms = append(alarms, ruleID) }
	})
	tb.mon[2].OnControllerMessage(addFM(t, 701, 5, ip4(10, 0, 8, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	tb.mon[2].OnControllerMessage(addFM(t, 700, 10, ip4(10, 0, 8, 1), 3), 2)
	tb.sim.RunUntil(2 * time.Second)
	if len(confirms) != 2 || confirms[1] != 700 {
		t.Fatalf("confirms %v, want rule 700 confirmed by silence", confirms)
	}
	if p := ruleProbe(t, tb, 700); !tb.mon[2].outcomeSilent(p.Present) || tb.mon[2].outcomeSilent(p.Absent) {
		t.Fatalf("test premise: rule 700's Present must be silent and its Absent catchable: %+v", p)
	}
	sent := tb.mon[2].Stats.ProbesSent
	tb.mon[2].StartSteadyState()
	tb.sim.RunUntil(5 * time.Second)
	if len(alarms) != 0 {
		t.Fatalf("false steady alarms on %v; stats=%+v", alarms, tb.mon[2].Stats)
	}
	if tb.mon[2].Stats.ProbesSent-sent < 40 {
		t.Fatalf("prober barely ran: %+v", tb.mon[2].Stats)
	}
}

// TestUncraftableProbeReleasesUnverified: a probe the wire cannot carry
// (a non-IPv4 header) never goes out. A pending update holding one is
// released like an unmonitorable rule — OnRuleConfirmed fires, but no
// confirmation is counted — and a sweep observation reports it
// unexpected at once.
func TestUncraftableProbeReleasesUnverified(t *testing.T) {
	var confirms []uint64
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirms = append(confirms, ruleID) }
	})
	m := tb.mon[2]
	p := &probe.Probe{RuleID: 900}
	p.Header.Set(header.EthType, header.EthTypeARP)
	m.startPending(900, p, packet.ExpectPresent)
	tb.sim.RunUntil(time.Second)
	if len(confirms) != 1 || confirms[0] != 900 || m.Stats.Confirmations != 0 || m.Stats.ProbesSent != 0 {
		t.Fatalf("confirms %v, stats %+v: want rule 900 released with nothing sent and nothing confirmed", confirms, m.Stats)
	}
	if len(m.pending) != 0 {
		t.Fatalf("update still pending: %v", m.pending)
	}
	var got Verdict = -1
	m.observeProbe(p, packet.ExpectPresent, time.Second, func(v Verdict) { got = v })
	if got != VerdictUnexpected {
		t.Fatalf("sweep verdict %v, want %v at once", got, VerdictUnexpected)
	}
}

// TestSilentOldOutcomePacesByMinRTO: on the HP 5406zl profile, rules added
// over a drop table-miss drop every copy sent before they commit, so no
// catch answers those copies; the prober keeps re-injecting every minRTO
// rather than waiting out an RTO inflated by the first catches, which
// queued behind the FlowMods.
func TestSilentOldOutcomePacesByMinRTO(t *testing.T) {
	committed, confirmed := map[uint64]sim.Time{}, map[uint64]sim.Time{}
	tb := newLineTestbed(t, switchsim.HP5406zl(), func(c *Config) {
		c.Ports = append(c.Ports, 3)
		c.PortPeer[3] = HostPeer
		c.OnRuleConfirmed = func(ruleID uint64, at sim.Time) { confirmed[ruleID] = at }
	})
	tb.sw[2].OnCommit = func(_ uint16, cookie uint64, at sim.Time) { committed[cookie] = at }
	for i := uint64(0); i < 3; i++ {
		tb.mon[2].OnControllerMessage(addFM(t, 100+i, 10, ip4(10, 0, 0, 1+i), 2), uint32(i))
	}
	tb.sim.RunUntil(time.Second)
	// A copy every minRTO confirms each within 4.3 ms of its commit; waiting
	// out a full RTO took up to 34 ms.
	for id := uint64(100); id < 103; id++ {
		c, ok := confirmed[id]
		if !ok || c-committed[id] > 5*time.Millisecond {
			t.Errorf("rule %d committed at %v, confirmed at %v (%v), want within 5ms", id, committed[id], c, ok)
		}
	}
	// A rule toward a host added over the drop miss has no catchable
	// outcome at all: it waits out each copy, goes silent and is
	// released, rather than re-injecting every minRTO for good.
	tb.mon[2].OnControllerMessage(addFM(t, 103, 10, ip4(10, 0, 0, 4), 3), 3)
	tb.sim.RunUntil(2 * time.Second)
	if _, ok := confirmed[103]; !ok || len(tb.mon[2].pending) != 0 {
		t.Errorf("host-facing rule over the drop miss not released: %d pending, %d probes sent", len(tb.mon[2].pending), tb.mon[2].Stats.ProbesSent)
	}
}
