package monocle

// Steady-state monitoring (§3, §8.1.1): Monocle cycles through every
// installed rule at a capped probe rate, re-sends each probe in the
// bounded observation's copy slots, and raises an alarm when a rule stays
// unconfirmed for AlarmTimeout. Probes are cached per rule and
// regenerated whenever the expected table changes (epoch bump).

import (
	"context"
	"time"

	"monocle/internal/packet"
	"monocle/internal/probe"
	"monocle/internal/sim"
)

// steadyState is the cycling prober.
type steadyState struct {
	order   []uint64 // rule id cycle
	idx     int
	cache   map[uint64]*cachedProbe
	active  map[uint64]bool // rules with an attempt in flight
	failed  map[uint64]bool // already-alarmed rules (no duplicate alarms)
	ticker  *sim.Timer
	running bool
}

type cachedProbe struct {
	p     *probe.Probe
	dirty bool
}

// StartSteadyState begins (or restarts) cycling over all rules currently
// in the expected table plus rules added later.
func (m *Monitor) StartSteadyState() {
	if m.steady == nil {
		m.steady = &steadyState{
			cache:  make(map[uint64]*cachedProbe),
			active: make(map[uint64]bool),
			failed: make(map[uint64]bool),
		}
	}
	m.steady.running = true
	m.prewarmProbeCache()
	m.scheduleTick(0)
}

// prewarmProbeCache fills the steady-state probe cache for every rule that
// lacks a fresh probe, using the incremental parallel engine: the whole
// expected table is swept through persistent per-worker SAT sessions
// instead of re-encoding each rule from scratch on its first cycle tick.
// The sweep runs over the epoch-aware SessionCache, so repeated prewarms
// across table changes recompile only the changed rules. Generation costs
// no virtual time, so monitoring semantics are unchanged; the sweep only
// moves the real-time cost off the per-tick path.
func (m *Monitor) prewarmProbeCache() {
	st := m.steady
	stale := false
	for _, r := range m.expected.View() {
		cp := st.cache[r.ID]
		if cp == nil || cp.dirty {
			stale = true
			break
		}
	}
	if !stale {
		return
	}
	for _, res := range m.cache.GenerateAll(context.Background(), m.updateEpoch, 0) {
		cp := st.cache[res.Rule.ID]
		if cp != nil && !cp.dirty {
			continue // fresh entry; keep it (semantics of the lazy path)
		}
		if res.Err != nil {
			m.noteGenFailure(res.Err)
			st.cache[res.Rule.ID] = &cachedProbe{p: nil}
			continue
		}
		m.Stats.GeneratedProbes++
		st.cache[res.Rule.ID] = &cachedProbe{p: res.Probe}
	}
}

// StopSteadyState pauses the cycle.
func (m *Monitor) StopSteadyState() {
	if m.steady == nil {
		return
	}
	m.steady.running = false
	if m.steady.ticker != nil {
		m.steady.ticker.Cancel()
	}
}

// probeInterval is the steady-state pacing (1/ProbeRate).
func (m *Monitor) probeInterval() time.Duration {
	rate := m.Cfg.ProbeRate
	if rate <= 0 {
		rate = 500
	}
	return time.Duration(float64(time.Second) / rate)
}

func (m *Monitor) scheduleTick(d time.Duration) {
	st := m.steady
	if st.ticker != nil {
		st.ticker.Cancel()
	}
	st.ticker = m.Sim.After(d, m.steadyTick)
}

// steadyTick probes the next rule in the cycle.
func (m *Monitor) steadyTick() {
	st := m.steady
	if st == nil || !st.running {
		return
	}
	defer m.scheduleTick(m.probeInterval())

	ruleID, ok := m.nextSteadyRule()
	if !ok {
		return // nothing to monitor this tick
	}
	cp := st.cache[ruleID]
	rule, exists := m.expected.Get(ruleID)
	if !exists {
		delete(st.cache, ruleID)
		return
	}
	if cp == nil || cp.dirty {
		p, err := m.cache.Generate(m.updateEpoch, rule)
		if err != nil {
			m.noteGenFailure(err)
			st.cache[ruleID] = &cachedProbe{p: nil}
			return
		}
		m.Stats.GeneratedProbes++
		cp = &cachedProbe{p: p}
		st.cache[ruleID] = cp
	}
	if cp.p == nil {
		return // unmonitorable at current epoch
	}
	m.beginAttempt(ruleID, cp.p)
}

// nextSteadyRule advances the cycle, rebuilding the order from the
// expected table when exhausted. Rules under dynamic confirmation and
// rules with an attempt in flight are skipped.
func (m *Monitor) nextSteadyRule() (uint64, bool) {
	st := m.steady
	for scan := 0; scan < 2; scan++ {
		for st.idx < len(st.order) {
			id := st.order[st.idx]
			st.idx++
			if _, pending := m.pending[id]; pending {
				continue
			}
			if st.active[id] {
				continue
			}
			if _, ok := m.expected.Get(id); !ok {
				continue
			}
			return id, true
		}
		// Rebuild the cycle.
		st.order = st.order[:0]
		for _, r := range m.expected.Rules() {
			st.order = append(st.order, r.ID)
		}
		st.idx = 0
		if len(st.order) == 0 {
			return 0, false
		}
	}
	return 0, false
}

// beginAttempt verifies one rule by one bounded observation over
// AlarmTimeout (observeFor's copy slots and window). A confirmed rule
// heals; anything else alarms.
func (m *Monitor) beginAttempt(ruleID uint64, p *probe.Probe) {
	st := m.steady
	st.active[ruleID] = true
	m.observeFor(&observation{probe: p, expect: packet.ExpectPresent, done: func(v Verdict) {
		delete(st.active, ruleID)
		if v == VerdictConfirmed {
			delete(st.failed, ruleID) // rule healed
			return
		}
		m.raiseAlarm(ruleID)
	}}, m.Cfg.AlarmTimeout)
}

func (m *Monitor) raiseAlarm(ruleID uint64) {
	st := m.steady
	if st.failed[ruleID] {
		return
	}
	st.failed[ruleID] = true
	m.Stats.Alarms++
	if m.Cfg.OnAlarm != nil {
		m.Cfg.OnAlarm(ruleID, m.Sim.Now())
	}
}
