// Quickstart: the smallest end-to-end Monocle scenario, all in-process.
// It drives the internal proxy Monitor on simulated switches and a
// virtual clock; the public `monocle` package supplies the OpenFlow
// messages and match builders.
//
// A monitored switch S2 sits between S1 and S3 (the catchers). A
// controller installs three forwarding rules through the Monocle proxy,
// each is verified in the data plane by SAT-generated probes
// (single-switch dynamic-update verification), steady-state monitoring
// starts, and then we silently remove one rule from the data plane — the
// failure the control plane cannot see. Monocle raises an alarm within
// its 150 ms detection timeout plus the probing-cycle position.
package main

import (
	"fmt"
	"time"

	"monocle"
	imon "monocle/internal/monocle"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

func main() {
	s := sim.New()
	mux := imon.NewMultiplexer()

	// Line topology: S1 <-> S2 <-> S3.
	sw := make([]*switchsim.Switch, 4) // 1-indexed
	for i := 1; i <= 3; i++ {
		sw[i] = switchsim.New(uint32(i), s, switchsim.HP5406zl(), int64(i))
	}
	switchsim.Connect(sw[1], 1, sw[2], 1, 100*time.Microsecond)
	switchsim.Connect(sw[2], 2, sw[3], 1, 100*time.Microsecond)

	// Monitors: every switch gets one (neighbours act as probe catchers).
	mons := make([]*imon.Monitor, 4)
	peers := map[int]map[monocle.PortID]uint32{
		1: {1: 2}, 2: {1: 1, 2: 3}, 3: {1: 2},
	}
	ports := map[int][]monocle.PortID{1: {1}, 2: {1, 2}, 3: {1}}
	for i := 1; i <= 3; i++ {
		cfg := imon.DefaultConfig(uint32(i))
		cfg.PortPeer, cfg.Ports = peers[i], ports[i]
		if i == 2 {
			cfg.OnAlarm = func(ruleID uint64, at sim.Time) {
				fmt.Printf("[%8v] ALARM: rule %d missing from the data plane!\n", at.Round(time.Millisecond), ruleID)
			}
			cfg.OnRuleConfirmed = func(ruleID uint64, at sim.Time) {
				fmt.Printf("[%8v] confirmed: rule %d verified in the data plane\n", at.Round(time.Millisecond), ruleID)
			}
		}
		mon := imon.New(s, cfg)
		mux.Register(mon)
		mons[i] = mon
		this := sw[i]
		mon.ToSwitch = func(msg monocle.Message, xid uint32) { this.FromController(msg, xid) }
		this.ToController = func(msg monocle.Message, xid uint32) { mon.OnSwitchMessage(msg, xid) }
		mon.ToController = func(monocle.Message, uint32) {}
		// Catching rules (reserved tag values 1..3, one per switch).
		for _, cr := range mon.CatchRules([]uint32{1, 2, 3}) {
			if err := mon.Preinstall(cr); err != nil {
				panic(err)
			}
			if err := this.DataTable().Insert(cr.Clone()); err != nil {
				panic(err)
			}
		}
	}

	// The "controller": install three flows on S2 through the proxy.
	fmt.Println("installing 3 rules through the Monocle proxy...")
	for i := 0; i < 3; i++ {
		m := monocle.MatchAll().
			WithExact(monocle.EthType, monocle.EthTypeIPv4).
			WithExact(monocle.IPSrc, uint64(10<<24|i+1))
		wm, err := monocle.FromMatch(m)
		if err != nil {
			panic(err)
		}
		mons[2].OnControllerMessage(&monocle.FlowMod{
			Match: wm, Cookie: uint64(100 + i), Command: monocle.FCAdd,
			Priority: 10, BufferID: monocle.BufferNone, OutPort: monocle.PortNone,
			Actions: []monocle.WireAction{monocle.OutputAction(2)},
		}, uint32(i))
	}
	s.RunUntil(2 * time.Second)

	fmt.Println("starting steady-state monitoring at 500 probes/s...")
	mons[2].StartSteadyState()
	s.RunUntil(3 * time.Second)

	fmt.Printf("[%8v] injecting failure: rule 101 silently dropped from hardware\n",
		s.Now().Round(time.Millisecond))
	sw[2].FailRule(101)
	s.RunUntil(6 * time.Second)

	st := mons[2].Stats
	fmt.Printf("\nmonitor stats: %d probes sent, %d caught, %d confirmations, %d alarms\n",
		st.ProbesSent, st.ProbesCaught, st.Confirmations, st.Alarms)
}
