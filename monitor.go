package monocle

// Proxy-layer re-exports: the per-switch Monitor state machine that sits
// between an SDN controller and its switch, the probe-routing Multiplexer,
// and the virtual clock they run on. Transport integrations (cmd/monocle's
// TCP proxy, the simulated testbed) wire messages in and out; the Monitor
// itself owns no goroutines and must be driven from one event-loop thread.

import (
	imon "monocle/internal/monocle"
	"monocle/internal/packet"
	"monocle/internal/sim"
)

// Monitor proxies one controller-switch session and monitors that switch:
// FlowMods update the expected table and trigger dynamic probe
// confirmation; steady-state cycling probes every installed rule.
type Monitor = imon.Monitor

// MonitorConfig parameterizes one Monitor.
type MonitorConfig = imon.Config

// MonitorStats counts one Monitor's activity.
type MonitorStats = imon.MonitorStats

// Multiplexer routes caught probes between the Monitors of a fleet by the
// switch id embedded in the probe metadata. Its routing table is safe for
// concurrent use; RouteCaught deliveries and Register follow the owning
// Monitor's single-threaded contract (register a monitor before its event
// loop starts; deliver on that loop's thread).
type Multiplexer = imon.Multiplexer

// MuxStats counts multiplexer routing results.
type MuxStats = imon.MuxStats

// HostPeer marks a port that leads out of the monitored core: probes
// emitted there are lost (no catcher, §3.5).
const HostPeer = imon.HostPeer

// NewMonitor creates a Monitor on the given virtual clock. Wire
// ToSwitch/ToController (and a Multiplexer for multi-switch deployments)
// before delivering messages. Prefer NewProxyBackend for live switches:
// it owns the event loop, the Multiplexer wiring and the transports.
func NewMonitor(s *Sim, cfg MonitorConfig) *Monitor { return imon.New(s, cfg) }

// NewMultiplexer returns an empty probe-routing multiplexer.
func NewMultiplexer() *Multiplexer { return imon.NewMultiplexer() }

// NewMonitorConfig returns the paper-default Monitor parameters for one
// switch, with facade options applied: WithProbeTag sets the probe tag
// (on the dl_vlan probe field), WithPeers the port-to-neighbour map,
// WithDetectionTimeout the steady-state alarm timeout, WithProbeRate the
// steady probing rate, and WithCounting the multicast/ECMP exception.
func NewMonitorConfig(switchID uint32, opts ...Option) MonitorConfig {
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

// ProbeMetadata identifies one in-flight probe: it rides in the probe
// payload and routes the caught probe back to its owning Monitor.
type ProbeMetadata = packet.Metadata

// Expectation tells the collector how to interpret a probe's arrival.
type Expectation = packet.Expectation

// Expectation values.
const (
	// ExpectPresent: arrival consistent with Present confirms the rule.
	ExpectPresent = packet.ExpectPresent
	// ExpectAbsent: arrival consistent with Absent confirms a deletion.
	ExpectAbsent = packet.ExpectAbsent
	// ExpectModified: arrival with the new rewrite confirms a
	// modification.
	ExpectModified = packet.ExpectModified
)

// CraftFrame serializes an abstract probe header plus payload into a real
// Ethernet/IPv4 frame (what PacketOut carries).
func CraftFrame(h Header, payload []byte) ([]byte, error) { return packet.Craft(h, payload) }

// ParseFrame decodes a frame back into the abstract header and payload.
func ParseFrame(frame []byte) (Header, []byte, error) { return packet.Parse(frame) }

// UnmarshalProbeMetadata decodes a probe payload; it returns an error for
// payloads that are not Monocle probes.
func UnmarshalProbeMetadata(b []byte) (ProbeMetadata, error) { return packet.UnmarshalMetadata(b) }

// Sim is the discrete-event virtual clock the Monitor runs on. Real-time
// integrations (cmd/monocle) advance it against the wall clock; simulated
// ones (the testbed, the experiments) drive it directly.
type Sim = sim.Sim

// Time is a virtual-clock timestamp (a duration since the clock's zero).
type Time = sim.Time

// Timer is a cancellable scheduled callback on a Sim.
type Timer = sim.Timer

// NewSim returns a virtual clock at time zero.
func NewSim() *Sim { return sim.New() }
