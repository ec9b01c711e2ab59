// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated substrate: one driver per experiment,
// each returning the same rows/series the paper reports. The package is
// used by cmd/experiments and by the root-level benchmark harness.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"monocle/internal/coloring"
	"monocle/internal/flowtable"
	"monocle/internal/monocle"
	"monocle/internal/openflow"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// LinkSpec wires two switches by index with explicit port numbers.
type LinkSpec struct {
	A, B   int
	PA, PB flowtable.PortID
}

// NetConfig describes a simulated network.
type NetConfig struct {
	N         int
	Links     []LinkSpec
	HostPorts map[int]flowtable.PortID // host-facing (egress) port per switch
	Profile   func(i int) switchsim.Profile
	// Monocle attaches a Monitor proxy to every switch and installs
	// colored catching rules; false builds the bare-switch baseline.
	Monocle bool
	Seed    int64
}

// Net is a wired simulation: switches, optional monitors, and the
// controller-side hooks.
type Net struct {
	Sim      *sim.Sim
	Switches []*switchsim.Switch
	Monitors []*monocle.Monitor
	Mux      *monocle.Multiplexer
	Colors   []int

	cfg      NetConfig
	ports    map[[2]int]flowtable.PortID
	ctrlRecv []func(msg openflow.Message, xid uint32)
	// CommitAt records data plane commit times: key = switch<<48|cookie
	// (cookies in experiments stay under 2^48).
	CommitAt map[uint64]sim.Time
	// OnCommit, when set, observes every commit.
	OnCommit func(sw int, cmd uint16, cookie uint64, at sim.Time)
}

// Build constructs the network.
func Build(cfg NetConfig) *Net {
	n := &Net{
		Sim:      sim.New(),
		cfg:      cfg,
		ports:    make(map[[2]int]flowtable.PortID),
		ctrlRecv: make([]func(openflow.Message, uint32), cfg.N),
		CommitAt: make(map[uint64]sim.Time),
	}
	graph := coloring.NewGraph(cfg.N)
	for i := 0; i < cfg.N; i++ {
		prof := switchsim.OVS()
		if cfg.Profile != nil {
			prof = cfg.Profile(i)
		}
		sw := switchsim.New(uint32(i), n.Sim, prof, cfg.Seed+int64(i)*7919)
		i := i
		sw.OnCommit = func(cmd uint16, cookie uint64, at sim.Time) {
			n.CommitAt[uint64(i)<<48|cookie] = at
			if n.OnCommit != nil {
				n.OnCommit(i, cmd, cookie, at)
			}
		}
		n.Switches = append(n.Switches, sw)
	}
	for _, l := range cfg.Links {
		switchsim.Connect(n.Switches[l.A], l.PA, n.Switches[l.B], l.PB, 50*time.Microsecond)
		n.ports[[2]int{l.A, l.B}] = l.PA
		n.ports[[2]int{l.B, l.A}] = l.PB
		graph.AddEdge(l.A, l.B)
	}
	for swi, p := range cfg.HostPorts {
		switchsim.ConnectHost(n.Switches[swi], p, 50*time.Microsecond, func(switchsim.Frame) {})
	}

	if !cfg.Monocle {
		// Direct mode: the controller talks to the switches.
		for i := range n.Switches {
			i := i
			n.Switches[i].ToController = func(msg openflow.Message, xid uint32) {
				if n.ctrlRecv[i] != nil {
					n.ctrlRecv[i](msg, xid)
				}
			}
		}
		return n
	}

	// Monocle mode: color the topology (strategy 1) and attach proxies.
	plan := coloring.PlanStrategy1(graph, 2_000_000)
	n.Colors = plan.Colors
	reserved := make([]uint32, 0, plan.Values)
	seen := map[int]bool{}
	for _, c := range plan.Colors {
		if !seen[c] {
			seen[c] = true
			reserved = append(reserved, uint32(c+1))
		}
	}
	sort.Slice(reserved, func(a, b int) bool { return reserved[a] < reserved[b] })

	n.Mux = monocle.NewMultiplexer()
	for i := 0; i < cfg.N; i++ {
		mcfg := monocle.DefaultConfig(uint32(i + 1))
		mcfg.SwitchID = uint32(i + 1) // ids start at 1 (0 means default)
		mcfg.TagValue = uint32(plan.Colors[i] + 1)
		mcfg.PortPeer = make(map[flowtable.PortID]uint32)
		for _, l := range cfg.Links {
			if l.A == i {
				mcfg.PortPeer[l.PA] = uint32(l.B + 1)
			}
			if l.B == i {
				mcfg.PortPeer[l.PB] = uint32(l.A + 1)
			}
		}
		if hp, ok := cfg.HostPorts[i]; ok {
			mcfg.PortPeer[hp] = monocle.HostPeer
		}
		for p := range mcfg.PortPeer {
			if p != flowtable.PortController {
				mcfg.Ports = append(mcfg.Ports, p)
			}
		}
		sort.Slice(mcfg.Ports, func(a, b int) bool { return mcfg.Ports[a] < mcfg.Ports[b] })
		mon := monocle.New(n.Sim, mcfg)
		n.Mux.Register(mon)
		n.Monitors = append(n.Monitors, mon)
		sw := n.Switches[i]
		mon.ToSwitch = func(msg openflow.Message, xid uint32) { sw.FromController(msg, xid) }
		sw.ToController = func(msg openflow.Message, xid uint32) { mon.OnSwitchMessage(msg, xid) }
		i := i
		mon.ToController = func(msg openflow.Message, xid uint32) {
			if n.ctrlRecv[i] != nil {
				n.ctrlRecv[i](msg, xid)
			}
		}
		for _, cr := range mon.CatchRules(reserved) {
			if err := mon.Preinstall(cr); err != nil {
				panic(fmt.Sprintf("experiments: catch preinstall: %v", err))
			}
			if err := sw.DataTable().Insert(cr.Clone()); err != nil {
				panic(fmt.Sprintf("experiments: catch insert: %v", err))
			}
		}
	}
	return n
}

// Send delivers a controller message toward switch i (through the Monitor
// in Monocle mode).
func (n *Net) Send(i int, msg openflow.Message, xid uint32) {
	if n.Monitors != nil {
		n.Monitors[i].OnControllerMessage(msg, xid)
		return
	}
	n.Switches[i].FromController(msg, xid)
}

// SetCtrlRecv installs the controller-side receive handler for switch i.
func (n *Net) SetCtrlRecv(i int, h func(msg openflow.Message, xid uint32)) {
	n.ctrlRecv[i] = h
}

// PortBetween implements controller.PortResolver.
func (n *Net) PortBetween(u, v int) (flowtable.PortID, bool) {
	p, ok := n.ports[[2]int{u, v}]
	return p, ok
}

// HostPort implements controller.PortResolver.
func (n *Net) HostPort(e int) (flowtable.PortID, bool) {
	p, ok := n.cfg.HostPorts[e]
	return p, ok
}

// CommitTime returns when the rule (switch, cookie) last committed.
func (n *Net) CommitTime(sw int, cookie uint64) (sim.Time, bool) {
	t, ok := n.CommitAt[uint64(sw)<<48|cookie]
	return t, ok
}

// Durations sorts a sample for CDF-style reporting.
func Durations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-quantile (0..1) of a sorted sample.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
