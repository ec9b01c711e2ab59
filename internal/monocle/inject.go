package monocle

// Probe injection, collection and judging. Probes are injected through the
// monitored switch's own control channel as PacketOut messages whose only
// action outputs to OFPP_TABLE, i.e. the frame traverses the switch's flow
// table exactly like a data packet arriving on InPort (§8.3.1: "the
// approach we implemented relies on the control channel"). Caught probes
// arrive as PacketIns at the *downstream* switch's Monitor, which hands
// them to the Multiplexer for routing back to the owner by the switch id
// in the probe metadata (§4.2).

import (
	"time"

	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/openflow"
	"monocle/internal/packet"
	"monocle/internal/probe"
)

// startPending registers dynamic monitoring for an update. All pending
// updates share one round-robin prober whose aggregate PacketOut budget is
// capped by dynamicProbeRate, so a burst of updates (the §8.4 batched
// scenario) does not crowd FlowMods out of the switch's control channel.
func (m *Monitor) startPending(ruleID uint64, p *probe.Probe, kind packet.Expectation) *pendingUpdate {
	// The probe is ready for injection after the modeled generation
	// latency (Table 2).
	pu := &pendingUpdate{ruleID: ruleID, eligibleAt: m.Sim.Now() + genDelay}
	// Whatever finishes the observation releases the update: settling
	// evidence, or silence for a probe that can never settle. A probe
	// that cannot be crafted finishes before its first copy goes out;
	// its update is released unverified, like an unmonitorable rule.
	pu.ob = &observation{probe: p, expect: kind, done: func(Verdict) {
		m.confirmRule(pu, len(pu.ob.copies) > 0)
	}}
	m.pending[ruleID] = pu
	m.dynQueue = append(m.dynQueue, ruleID)
	m.armDynTicker(genDelay)
	return pu
}

// armDynTicker ensures a prober tick is scheduled within d.
func (m *Monitor) armDynTicker(d time.Duration) {
	if m.dynTicker != nil && m.dynTicker.Pending() {
		return
	}
	m.dynTicker = m.Sim.After(d, m.dynamicTick)
}

// dynamicTick probes the oldest eligible pending update first: updates
// are forwarded to the switch in arrival order and commit in roughly that
// order, so the head of the queue is the rule most likely to have just
// landed in the data plane. None is re-injected while in flight, unless
// only its old outcome is silent: no catch answers a copy sent before the
// commit, so it re-injects every minRTO. Each visit consults the
// observation's silence rule, so updates whose settling outcome is
// uncatchable (drops, deletions falling through to a drop) confirm by
// silence.
func (m *Monitor) dynamicTick() {
	if len(m.pending) == 0 {
		m.dynQueue = m.dynQueue[:0]
		return
	}
	now := m.Sim.Now()
	scanned := 0
	injected := false
	for scanned < len(m.dynQueue) && !injected {
		id := m.dynQueue[scanned]
		scanned++
		pu, ok := m.pending[id]
		if !ok || now < pu.eligibleAt {
			continue // confirmed (lazily compacted below), or not yet generated
		}
		ob := pu.ob
		if m.silent(ob) {
			// A probe whose outcomes are both silent can never settle:
			// its silence releases the update unverified, as an
			// unmonitorable rule is released.
			v := m.silenceVerdict(ob.probe)
			if m.catch(ob, v) || m.outcomeSilent(ob.probe.Present) && m.outcomeSilent(ob.probe.Absent) {
				m.finish(ob, v)
				continue
			}
		}
		old, settling := ob.probe.Absent, ob.probe.Present
		if ob.expect == packet.ExpectAbsent {
			old, settling = settling, old
		}
		if m.inFlight(ob) && (!m.outcomeSilent(old) || m.outcomeSilent(settling) || now-ob.copies[len(ob.copies)-1].at < minRTO) {
			continue
		}
		m.inject(ob)
		injected = true
	}
	// Compact confirmed entries off the head, and fully once the queue
	// is mostly dead.
	for len(m.dynQueue) > 0 {
		if _, ok := m.pending[m.dynQueue[0]]; ok {
			break
		}
		m.dynQueue = m.dynQueue[1:]
	}
	if len(m.dynQueue) > 32 && len(m.dynQueue) > 2*len(m.pending) {
		kept := make([]uint64, 0, len(m.pending))
		for _, id := range m.dynQueue {
			if _, ok := m.pending[id]; ok {
				kept = append(kept, id)
			}
		}
		m.dynQueue = kept
	}
	if len(m.pending) > 0 {
		m.dynTicker = m.Sim.After(time.Second/dynamicProbeRate, m.dynamicTick)
	}
}

// outcomeSilent reports whether no emission of the outcome can reach a
// catcher (drop, or every emission exits toward hosts).
func (m *Monitor) outcomeSilent(o probe.Outcome) bool {
	if o.Drop {
		return true
	}
	for _, e := range o.Emissions {
		if m.catcherFor(e.Port) != HostPeer {
			return false
		}
	}
	return true
}

// catcherFor maps an output port of the monitored switch to the switch ID
// that would catch a probe emitted there.
func (m *Monitor) catcherFor(p flowtable.PortID) uint32 {
	if p == flowtable.PortController {
		// A to-controller emission comes back as a PacketIn on the
		// monitored switch itself.
		return m.Cfg.SwitchID
	}
	if id, ok := m.Cfg.PortPeer[p]; ok {
		return id
	}
	return HostPeer
}

// inject crafts and PacketOuts one copy of the observation's probe; it
// reports whether the observation is still open. The frame, metadata
// payload, and PacketOut are built in Monitor-owned scratch buffers reused
// across injections (see the ToSwitch contract): a 10k-probe sweep
// injects with zero per-probe buffer allocations.
func (m *Monitor) inject(ob *observation) bool {
	p := ob.probe
	m.nextSeq++
	seq := m.nextSeq
	meta := packet.Metadata{
		RuleID:   p.RuleID,
		Seq:      seq,
		SwitchID: m.Cfg.SwitchID,
		Expect:   ob.expect,
		Nonce:    m.nonce,
	}
	if cap(m.metaBuf) == 0 {
		m.metaBuf = make([]byte, 0, packet.MetadataLen)
		m.frameBuf = make([]byte, 0, packet.DefaultFrameCap)
		m.scratchAct[0] = openflow.OutputAction(openflow.PortTable)
	}
	m.metaBuf = meta.AppendTo(m.metaBuf[:0])
	frame, err := packet.CraftInto(m.frameBuf[:0], p.Header, m.metaBuf)
	if err != nil {
		// The probe packet cannot be crafted onto the wire (non-IPv4
		// header): a live driver cannot verify this rule.
		m.finish(ob, VerdictUnexpected)
		return false
	}
	m.frameBuf = frame
	m.inflight[seq] = ob
	ob.copies = append(ob.copies, sentCopy{seq, m.Sim.Now()})
	ob.owed = false
	m.Stats.ProbesSent++
	m.scratchPO = openflow.PacketOut{
		BufferID: openflow.BufferNone,
		InPort:   uint16(p.Header.Get(header.InPort)),
		Actions:  m.scratchAct[:],
		Data:     frame,
	}
	m.forwardToSwitch(&m.scratchPO, m.virtXID())
	return !ob.finished
}

// handleCaughtProbe inspects a PacketIn arriving from this Monitor's
// switch; Monocle probes are consumed and routed, everything else passes
// through to the controller. It returns true when consumed.
func (m *Monitor) handleCaughtProbe(pi *openflow.PacketIn) bool {
	h, payload, err := packet.Parse(pi.Data)
	if err != nil {
		return false
	}
	meta, err := packet.UnmarshalMetadata(payload)
	if err != nil {
		return false
	}
	h.Set(header.InPort, 0)
	if m.Mux != nil {
		m.Mux.RouteCaught(meta, m.Cfg.SwitchID, h)
		return true
	}
	// Single-switch setups without a Multiplexer: self-route.
	if meta.SwitchID == m.Cfg.SwitchID {
		m.OnProbeCaught(meta, m.Cfg.SwitchID, h)
	}
	return true
}

// OnProbeCaught processes a probe owned by this Monitor that was caught at
// switch `catcher` carrying observed header `obs`.
func (m *Monitor) OnProbeCaught(meta packet.Metadata, catcher uint32, obs header.Header) {
	m.Stats.ProbesCaught++
	if meta.Nonce != m.nonce {
		m.Stats.ProbesStale++
		return
	}
	ob, ok := m.inflight[meta.Seq]
	if !ok {
		m.Stats.ProbesStale++
		return
	}
	delete(m.inflight, meta.Seq)
	m.caughtCopy(ob, meta.Seq)
	// A contrary catch pays an owed slot at once (§4.1 commit race).
	if !m.catch(ob, m.judge(ob.probe, catcher, obs)) && ob.owed && !m.inFlight(ob) {
		m.inject(ob)
	}
}

// judge classifies an observation by which of the probe's outcomes it
// shows (Classify).
func (m *Monitor) judge(p *probe.Probe, catcher uint32, obs header.Header) Verdict {
	return Classify(m.outcomeMatches(p.Present, catcher, obs), m.outcomeMatches(p.Absent, catcher, obs))
}

// outcomeMatches checks one observation against an expected outcome: the
// probe must have been caught by the switch downstream of one of the
// outcome's emission ports, with exactly the rewritten header.
func (m *Monitor) outcomeMatches(o probe.Outcome, catcher uint32, obs header.Header) bool {
	if o.Drop {
		return false
	}
	for _, e := range o.Emissions {
		if m.catcherFor(e.Port) != catcher {
			continue
		}
		want := e.Header
		want.Set(header.InPort, 0)
		if want == obs {
			return true
		}
	}
	return false
}
