package monocle

// Functional options shared by Verifier, Fleet, Service and the proxy
// driver. Options the receiving constructor does not use are ignored, so
// one option list can parameterize a whole deployment.

import (
	"runtime"
	"sort"
	"time"

	"monocle/internal/probe"
)

// Option configures a Verifier, a Fleet, a Service, or the Monitor a
// ProxyBackend embeds.
type Option func(*settings)

// settings is the resolved option set.
type settings struct {
	probeTag uint64
	ports    []PortID
	peers    map[PortID]uint32

	workers          int
	steadyInterval   time.Duration
	detectionTimeout time.Duration
	probeRate        float64

	counting bool
	miss     TableMiss

	debounce    int
	stallSweeps int
	flapWindow  int
	flapFlips   int

	backendFlapWindow int
	backendFlapCycles int

	sinks []Sink

	store        Store
	stateDir     string
	recordDir    string
	reconnectMin time.Duration
	reconnectMax time.Duration

	policy *Policy
}

// defaultSettings returns the paper-default option values.
func defaultSettings() settings {
	return settings{
		steadyInterval: 2 * time.Second,
		debounce:       1,
		stallSweeps:    3,
		flapWindow:     6,
		flapFlips:      3,

		backendFlapWindow: 6,
		backendFlapCycles: 3,
	}
}

func (s *settings) apply(opts []Option) {
	for _, o := range opts {
		o(s)
	}
}

// effectiveWorkers resolves the solver-worker budget (0 = all CPUs).
func (s *settings) effectiveWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// probeConfig builds switch id's probe-engine configuration from the
// resolved probe tag (WithProbeTag, else the switch id), its ports and
// counting mode; a tag the wire cannot carry is an error.
func (s *settings) probeConfig(id uint32) (probe.Config, error) {
	tag := s.probeTag
	if tag == 0 {
		tag = uint64(id)
	}
	return probe.SwitchConfig(tag, s.ports, s.counting)
}

// WithProbeTag pins the probe tag value S_i the switch stamps on its
// probes (the Collect constraint on dl_vlan). Zero (the default) uses the
// switch id. The resolved tag must be 1–4094, the VIDs dl_vlan can carry;
// Verifier, Fleet and Service registration reject any other value.
func WithProbeTag(v uint64) Option { return func(s *settings) { s.probeTag = v } }

// WithPorts restricts probe in_port values to the switch's usable ports.
func WithPorts(ports ...PortID) Option {
	return func(s *settings) { s.ports = append([]PortID(nil), ports...) }
}

// WithPeers maps each switch port to the switch id of the neighbour
// reachable over it (the downstream probe catcher); ports without entries
// are edge ports. Used by NewProxyBackend; it also implies WithPorts
// (ports sorted ascending, so probe generation stays deterministic no
// matter the map's iteration order).
func WithPeers(peers map[PortID]uint32) Option {
	return func(s *settings) {
		s.peers = make(map[PortID]uint32, len(peers))
		s.ports = make([]PortID, 0, len(peers))
		for p, id := range peers {
			s.peers[p] = id
			s.ports = append(s.ports, p)
		}
		sort.Slice(s.ports, func(i, j int) bool { return s.ports[i] < s.ports[j] })
	}
}

// WithWorkers bounds the solver-worker budget a sweep may use; a Fleet
// shards this budget across its member switches. Zero (the default) means
// all CPUs.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithSteadyInterval sets the cadence of Service.Run's steady-state sweep
// rounds (default 2s).
func WithSteadyInterval(d time.Duration) Option {
	return func(s *settings) { s.steadyInterval = d }
}

// WithDetectionTimeout bounds how long a rule may stay unconfirmed before
// the proxy Monitor raises an alarm (steady state), and a Service proxy
// switch's observation round trips. Zero keeps the paper's 150 ms
// steady-state default.
func WithDetectionTimeout(d time.Duration) Option {
	return func(s *settings) { s.detectionTimeout = d }
}

// WithProbeRate caps the proxy Monitor's steady-state probing rate in
// probes/second (default 500/s, the paper's experiments).
func WithProbeRate(rate float64) Option { return func(s *settings) { s.probeRate = rate } }

// WithCounting enables the probe-counting exception for multicast-vs-ECMP
// distinction (§3.4).
func WithCounting(on bool) Option { return func(s *settings) { s.counting = on } }

// WithTableMiss sets the verifier table's miss behaviour (default
// MissDrop).
func WithTableMiss(miss TableMiss) Option { return func(s *settings) { s.miss = miss } }

// WithDebounce makes the diff engine wait until a rule has been in a bad
// status for n consecutive sweeps before raising AlertRuleFailing
// (default 1: alert on the first bad sweep). Values below 1 are clamped
// to 1.
func WithDebounce(n int) Option {
	return func(s *settings) { s.debounce = max(n, 1) }
}

// WithStallThreshold raises AlertSwitchStalled after a previously-sweeping
// switch contributes no events for n consecutive sweep rounds (default 3).
// Values below 1 are clamped to 1.
func WithStallThreshold(n int) Option {
	return func(s *settings) { s.stallSweeps = max(n, 1) }
}

// WithFlapWindow raises AlertVerdictFlapping when a rule's good/bad state
// flips at least flips times within its last window sweeps (defaults 6
// and 3). Values below 2 (window) and 1 (flips) are clamped.
func WithFlapWindow(window, flips int) Option {
	return func(s *settings) {
		s.flapWindow = max(window, 2)
		s.flapFlips = max(flips, 1)
	}
}

// WithBackendFlapWindow raises AlertBackendFlapping when a switch's
// driver completes at least cycles disconnect/reconnect cycles within its
// last window sweep rounds (defaults 6 and 3). Values below 1 are
// clamped.
func WithBackendFlapWindow(window, cycles int) Option {
	return func(s *settings) {
		s.backendFlapWindow = max(window, 1)
		s.backendFlapCycles = max(cycles, 1)
	}
}

// WithRecordDir makes the Service record every switch's complete backend
// session — calls, verdicts, events, timings — to an append-only trace
// file (switch-<id>.trace) in the given directory (created if needed).
// Traces replay offline through ReplayBackend / cmd/monotrace: a live
// incident recorded once is reproducible forever, with zero network
// access. Recording failures degrade the trace, never the monitoring
// (counted in ServiceMetrics.StoreErrors).
func WithRecordDir(dir string) Option { return func(s *settings) { s.recordDir = dir } }

// WithAlertSink attaches an alert sink to the Service: every sweep round
// that raises alerts delivers them to each attached sink. A *RingSink
// attached here replaces the service's default in-memory ring (and backs
// GET /alerts); other sink types are added alongside it.
func WithAlertSink(sink Sink) Option {
	return func(s *settings) { s.sinks = append(s.sinks, sink) }
}

// WithStore attaches a persistence Store to the Service: switch
// registrations, expected-table snapshots, diff-engine state, and alerts
// are written through it, and Service.Resume restores them after a
// restart. Store write failures never fail the operation that triggered
// them; they are counted in ServiceMetrics.StoreErrors.
func WithStore(st Store) Option { return func(s *settings) { s.store = st } }

// WithStateDir is WithStore with the built-in FileStore opened on the
// given state directory (created if needed). An open failure surfaces on
// the service's first persisted operation as a StoreErrors count, not a
// construction error — a bad disk must not keep the monitor from running.
func WithStateDir(dir string) Option { return func(s *settings) { s.stateDir = dir } }

// WithReconnectBackoff tunes the proxy drivers' reconnect backoff window:
// min is the first redial delay after a switch-side transport failure,
// max caps the exponential growth (defaults 100ms and 15s). Applies to
// backends the Service creates from SwitchSpecs with backend "proxy".
func WithReconnectBackoff(min, max time.Duration) Option {
	return func(s *settings) {
		s.reconnectMin = min
		s.reconnectMax = max
	}
}

// WithPolicy installs a monitoring policy on the Service at construction:
// every switch resolves to a policy group, each group sweeps at its own
// cadence with its own sampling and alerting directives, and GET /policy
// serves the source text. The policy can be swapped live with
// Service.SetPolicy or PUT /policy. An explicit policy takes precedence
// over one persisted in the state directory.
func WithPolicy(p *Policy) Option { return func(s *settings) { s.policy = p } }
