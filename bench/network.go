package main

// The monitor side of a run: a Service built from public options, with
// every switch registered through Fleet().AddBackend wrapping the same
// driver Service.AddSwitch would build (shared ProxyGroup, same
// timeout, ports and peers). The traced run differs only in the timing
// decorators handed to AddBackend, WithStore and WithAlertSink, and in
// the relays the rig connections pass through.

import (
	"context"
	"fmt"
	"time"

	"monocle"
)

// detectionTimeout is the paper-scale alarm timeout quickstart and the
// scenarios use; monocled's 2 s default makes one 8x200 wire round take
// tens of seconds.
const detectionTimeout = 150 * time.Millisecond

// network is one monitor process's Service and the switches it monitors.
type network struct {
	svc     *monocle.Service
	tr      *tracer // nil when untraced
	sh      shape
	tables  map[uint32][]*monocle.Rule
	group   *monocle.ProxyGroup
	timeout time.Duration
}

// newNetwork builds the Service with opts, the observe timeout and the
// state dir, registers the workload's switches (over rig when sh.wire),
// and installs each switch's table. The traced variant wraps every seam.
func newNetwork(sh shape, tables map[uint32][]*monocle.Rule, stateDir string, rig rigAddrs, tr *tracer, timeout time.Duration, opts ...monocle.Option) (*network, error) {
	opts = append(opts, monocle.WithDetectionTimeout(timeout))
	if tr == nil {
		opts = append(opts, monocle.WithStateDir(stateDir))
	} else {
		st, err := monocle.OpenFileStore(stateDir)
		if err != nil {
			return nil, err
		}
		opts = append(opts, monocle.WithStore(tracedStore{Store: st, tr: tr}))
	}
	n := &network{svc: monocle.NewService(opts...), tr: tr, sh: sh, tables: tables, timeout: timeout}
	if err := n.register(rig); err != nil {
		n.svc.Close()
		return nil, err
	}
	for id := uint32(1); id <= uint32(sh.switches); id++ {
		if err := n.svc.InstallRules(id, cloneRules(n.tables[id])...); err != nil {
			n.svc.Close()
			return nil, fmt.Errorf("installing switch %d: %w", id, err)
		}
	}
	return n, nil
}

func cloneRules(rs []*monocle.Rule) []*monocle.Rule {
	out := make([]*monocle.Rule, len(rs))
	for i, r := range rs {
		out[i] = r.Clone()
	}
	return out
}

// register adds the catchers (empty proxy switches) and the monitored
// switches.
func (n *network) register(rig rigAddrs) error {
	if !n.sh.wire {
		for id := uint32(1); id <= uint32(n.sh.switches); id++ {
			if err := n.add(monocle.NewSimBackend(id)); err != nil {
				return err
			}
		}
		return nil
	}
	n.group = monocle.NewProxyGroup()
	for _, p := range rigPorts {
		addr, ok := rig.Catchers[catcherID(p)]
		if !ok {
			continue
		}
		if err := n.addProxy(catcherID(p), addr, monocle.WithPorts(rigPorts...)); err != nil {
			return err
		}
	}
	for id := uint32(1); id <= uint32(n.sh.switches); id++ {
		// Port p leads to catcher p; a rig without catchers (the
		// self-catching wiring rig_test.go contrasts) reflects every
		// port back to the switch itself.
		peers := make(map[monocle.PortID]uint32, len(rigPorts))
		for _, p := range rigPorts {
			peers[p] = catcherID(p)
			if len(rig.Catchers) == 0 {
				peers[p] = id
			}
		}
		if err := n.addProxy(id, rig.Switches[id], monocle.WithPorts(rigPorts...), monocle.WithPeers(peers)); err != nil {
			return err
		}
	}
	return nil
}

func (n *network) addProxy(id uint32, addr string, opts ...monocle.Option) error {
	if addr == "" {
		return fmt.Errorf("rig reported no address for switch %d", id)
	}
	if n.tr != nil {
		var err error
		if addr, err = n.tr.relay(id, addr); err != nil {
			return err
		}
	}
	be := monocle.NewProxyBackend(monocle.ProxyConfig{
		SwitchID:       id,
		SwitchAddr:     addr,
		ObserveTimeout: n.timeout,
		Group:          n.group,
	}, opts...)
	return n.add(be, opts...)
}

// add connects be and registers it, wrapped in the timing decorator when
// traced.
func (n *network) add(be monocle.Backend, opts ...monocle.Option) error {
	if err := be.Connect(context.Background()); err != nil {
		be.Close()
		return err
	}
	reg := be
	if n.tr != nil {
		reg = &tracedBackend{Backend: be, tr: n.tr}
	}
	if _, err := n.svc.Fleet().AddBackend(reg, opts...); err != nil {
		be.Close()
		return err
	}
	return nil
}

// rulesMonitored is the number of rules the fleet sweeps.
func (n *network) rulesMonitored() int {
	total := 0
	for _, rs := range n.tables {
		total += len(rs)
	}
	return total
}

func (n *network) close() {
	n.svc.Close()
	if n.tr != nil {
		n.tr.closeRelays()
	}
}
