package monocle

// Multiplexer (§7): connects to the Monitors of all monitored switches and
// routes caught probes to their owners. In the paper it also fans
// PacketIn/PacketOut messages between switch connections; in this
// event-driven reproduction each Monitor keeps its own switch connection
// and the Multiplexer's job reduces to probe routing by the switch id
// embedded in the probe metadata.
//
// Concurrency contract: the routing table (Register/Monitor/Monitors) and
// the routing counters are guarded by a mutex, so lookups and probe
// routing may come from different goroutines — the fleet deployment wires
// one Multiplexer across many switch connections. Two things stay outside
// the mutex's protection and follow the Monitor's own single-threaded
// rule instead: RouteCaught delivers synchronously into the owning
// Monitor (so it must run on that Monitor's event-loop thread), and
// Register wires the monitor's Mux pointer (so a monitor must be
// registered before its event loop starts delivering messages — the
// proxy backend registers at construction time, satisfying this).
// Sharing one event loop across every Monitor of a fleet, as cmd/monocle
// does, satisfies the delivery rule trivially.

import (
	"sort"
	"sync"

	"monocle/internal/header"
	"monocle/internal/packet"
)

// Multiplexer routes caught probes between Monitors.
type Multiplexer struct {
	mu       sync.RWMutex
	monitors map[uint32]*Monitor
	stats    MuxStats
}

// MuxStats counts multiplexer routing results.
type MuxStats struct {
	Routed  int
	NoOwner int
}

// NewMultiplexer returns an empty multiplexer.
func NewMultiplexer() *Multiplexer {
	return &Multiplexer{monitors: make(map[uint32]*Monitor)}
}

// Register attaches a Monitor and wires its Mux pointer. Registering a
// second Monitor under the same switch id replaces the first. The Mux
// pointer write is not synchronized with the monitor's event loop:
// register a monitor before that loop starts delivering its messages
// (see the package comment).
func (x *Multiplexer) Register(m *Monitor) {
	x.mu.Lock()
	x.monitors[m.Cfg.SwitchID] = m
	x.mu.Unlock()
	m.Mux = x
}

// Monitor returns the Monitor for a switch id.
func (x *Multiplexer) Monitor(id uint32) (*Monitor, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	m, ok := x.monitors[id]
	return m, ok
}

// Monitors returns every registered Monitor sorted by switch id, so fleet
// iteration is deterministic regardless of registration order.
func (x *Multiplexer) Monitors() []*Monitor {
	x.mu.RLock()
	out := make([]*Monitor, 0, len(x.monitors))
	for _, m := range x.monitors {
		out = append(out, m)
	}
	x.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cfg.SwitchID < out[j].Cfg.SwitchID })
	return out
}

// Stats returns a snapshot of the routing counters.
func (x *Multiplexer) Stats() MuxStats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.stats
}

// RouteCaught delivers a probe caught at switch `catcher` to the Monitor
// that owns it (meta.SwitchID). The lookup and counters are thread-safe;
// the delivery itself runs on the caller's goroutine and must respect the
// owning Monitor's single-threaded contract (see the package comment).
func (x *Multiplexer) RouteCaught(meta packet.Metadata, catcher uint32, obs header.Header) {
	x.mu.Lock()
	owner, ok := x.monitors[meta.SwitchID]
	if !ok {
		x.stats.NoOwner++
		x.mu.Unlock()
		return
	}
	x.stats.Routed++
	x.mu.Unlock()
	owner.OnProbeCaught(meta, catcher, obs)
}
