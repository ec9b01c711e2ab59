package monocle

// Proxy logic: the Monitor intercepts the controller↔switch session. It
// forwards FlowMods immediately (§7: "Monitor forwards the FlowMod
// messages as soon as it receives them"), tracks the expected flow table,
// starts dynamic monitoring of every update, queues updates that overlap
// still-unconfirmed ones (§4.2), rewrites drop rules when drop-postponing
// is enabled (§4.3), and answers controller barriers only once every
// preceding update is provably in the data plane (§8.1.2).

import (
	"monocle/internal/flowtable"
	"monocle/internal/openflow"
	"monocle/internal/packet"
)

// OnControllerMessage handles one controller→Monitor message.
func (m *Monitor) OnControllerMessage(msg openflow.Message, xid uint32) {
	switch t := msg.(type) {
	case *openflow.FlowMod:
		m.handleControllerFlowMod(t, xid)
	case *openflow.BarrierRequest, openflow.BarrierRequest:
		m.handleControllerBarrier(xid)
	default:
		m.forwardToSwitch(msg, xid)
	}
}

// OnSwitchMessage handles one switch→Monitor message.
func (m *Monitor) OnSwitchMessage(msg openflow.Message, xid uint32) {
	switch t := msg.(type) {
	case *openflow.PacketIn:
		if m.handleCaughtProbe(t) {
			return // consumed: a Monocle probe, not production traffic
		}
		m.forwardToController(msg, xid)
	case openflow.PacketIn:
		if m.handleCaughtProbe(&t) {
			return
		}
		m.forwardToController(msg, xid)
	case *openflow.BarrierReply, openflow.BarrierReply:
		if m.handleSwitchBarrierReply(xid) {
			return // consumed: a barrier Monocle is gating
		}
		m.forwardToController(msg, xid)
	default:
		m.forwardToController(msg, xid)
	}
}

func (m *Monitor) forwardToSwitch(msg openflow.Message, xid uint32) {
	if m.ToSwitch != nil {
		m.ToSwitch(msg, xid)
	}
}

func (m *Monitor) forwardToController(msg openflow.Message, xid uint32) {
	if m.ToController != nil {
		m.ToController(msg, xid)
	}
}

// handleControllerFlowMod applies §4.1/§4.2/§4.3 to one rule update.
func (m *Monitor) handleControllerFlowMod(fm *openflow.FlowMod, xid uint32) {
	m.Stats.FlowModsProxied++

	// §4.2: hold back updates that overlap any unconfirmed update.
	if m.overlapsPending(fm) {
		m.Stats.QueuedOverlaps++
		m.queued = append(m.queued, &queuedMod{fm: fm, xid: xid})
		return
	}
	m.processFlowMod(fm, xid)
}

// overlapsPending reports whether fm's match overlaps a pending update's.
func (m *Monitor) overlapsPending(fm *openflow.FlowMod) bool {
	match := fm.Match.ToMatch()
	for id := range m.pending {
		if r, ok := m.expected.Get(id); ok && r.Match.Overlaps(match) {
			return true
		}
		// Deleted rules are no longer in expected; conservative check
		// against the probe's rule match via pending probes.
		// The probe header matches the pending rule by construction,
		// so an overlap with the probe header is an overlap with the
		// rule.
		if match.Covers(m.pending[id].ob.probe.Header) {
			return true
		}
	}
	return false
}

// processFlowMod updates the expected table, forwards the (possibly
// rewritten) FlowMod, and starts dynamic monitoring for it.
func (m *Monitor) processFlowMod(fm *openflow.FlowMod, xid uint32) {
	actions, err := openflow.ToActions(fm.Actions)
	if err != nil {
		// Not expressible: forward unmonitored.
		m.forwardToSwitch(fm, xid)
		return
	}
	match := fm.Match.ToMatch()

	switch fm.Command {
	case openflow.FCAdd:
		if m.Cfg.DropPostpone && len(actions) == 0 {
			m.addWithDropPostpone(fm, xid)
			return
		}
		m.addRule(fm, xid, match, actions)
	case openflow.FCModify, openflow.FCModifyStrict:
		m.modifyRule(fm, xid, match, actions)
	case openflow.FCDelete, openflow.FCDeleteStrict:
		m.deleteRule(fm, xid, match)
	default:
		m.forwardToSwitch(fm, xid)
	}
}

func (m *Monitor) addRule(fm *openflow.FlowMod, xid uint32, match flowtable.Match, actions []flowtable.Action) {
	// Add-or-replace semantics.
	removed := m.expected.DeleteMatching(match, int(fm.Priority))
	rule := &flowtable.Rule{ID: fm.Cookie, Priority: int(fm.Priority), Match: match, Actions: actions}
	if err := m.expected.Insert(rule); err != nil {
		// Equal-priority overlap or duplicate id: undefined on the
		// switch too; forward unmonitored. The strict delete still
		// changed the table.
		if len(removed) > 0 {
			m.tableChanged(match)
		}
		m.forwardToSwitch(fm, xid)
		return
	}
	m.tableChanged(match)
	m.forwardToSwitch(fm, xid)

	// Addition probes target the expected table as-is, so they run through
	// the epoch-aware session cache (only this rule gets recompiled).
	p, err := m.cache.Generate(m.updateEpoch, rule)
	if err != nil {
		m.noteGenFailure(err)
		// Unmonitorable: confirm optimistically so barriers don't hang
		// (the switch's own barrier still gates them).
		m.confirmWithoutProbe(rule.ID)
		return
	}
	m.Stats.GeneratedProbes++
	m.startPending(rule.ID, p, packet.ExpectPresent)
}

// addWithDropPostpone installs the marked-forwarding version of a drop
// rule, confirms it positively, then swaps in the real drop (§4.3).
func (m *Monitor) addWithDropPostpone(fm *openflow.FlowMod, xid uint32) {
	match := fm.Match.ToMatch()
	marked := []flowtable.Action{
		flowtable.SetField(dropField, dropValue),
		flowtable.Output(m.Cfg.DropNeighborPort),
	}
	wireActs, err := openflow.FromActions(marked)
	if err != nil {
		m.forwardToSwitch(fm, xid)
		return
	}
	markedFM := *fm
	markedFM.Actions = wireActs
	removed := m.expected.DeleteMatching(match, int(fm.Priority))
	rule := &flowtable.Rule{ID: fm.Cookie, Priority: int(fm.Priority), Match: match, Actions: marked}
	if err := m.expected.Insert(rule); err != nil {
		if len(removed) > 0 {
			m.tableChanged(match)
		}
		m.forwardToSwitch(fm, xid)
		return
	}
	m.tableChanged(match)
	m.forwardToSwitch(&markedFM, xid)

	p, err := m.cache.Generate(m.updateEpoch, rule)
	if err != nil {
		m.noteGenFailure(err)
		m.confirmWithoutProbe(rule.ID)
		return
	}
	m.Stats.GeneratedProbes++
	pu := m.startPending(rule.ID, p, packet.ExpectPresent)
	pu.postponed = &postponedDrop{match: match, priority: fm.Priority, cookie: fm.Cookie}
}

func (m *Monitor) modifyRule(fm *openflow.FlowMod, xid uint32, match flowtable.Match, actions []flowtable.Action) {
	old := m.findRule(fm.Cookie, match, int(fm.Priority))
	if old == nil {
		// Modify of unknown rule behaves like add on OF1.0 switches.
		m.addRule(fm, xid, match, actions)
		return
	}
	p, err := m.gen.GenerateModification(m.expected, old, actions)
	if err != nil {
		m.noteGenFailure(err)
		_ = m.expected.Modify(old.ID, actions)
		m.tableChanged(match)
		m.forwardToSwitch(fm, xid)
		m.confirmWithoutProbe(old.ID)
		return
	}
	m.Stats.GeneratedProbes++
	_ = m.expected.Modify(old.ID, actions)
	m.tableChanged(match)
	m.forwardToSwitch(fm, xid)
	m.startPending(old.ID, p, packet.ExpectModified)
}

func (m *Monitor) deleteRule(fm *openflow.FlowMod, xid uint32, match flowtable.Match) {
	old := m.findRule(fm.Cookie, match, int(fm.Priority))
	if old == nil {
		m.forwardToSwitch(fm, xid)
		return
	}
	// Generate the probe while the rule is still in the expected table;
	// deletion is confirmed when the Absent outcome is observed (§4.1).
	// The rule is only dropped from the session cache's library on the
	// epoch sync after the delete below.
	p, err := m.cache.Generate(m.updateEpoch, old)
	_ = m.expected.Delete(old.ID)
	m.tableChanged(match)
	m.forwardToSwitch(fm, xid)
	if err != nil {
		m.noteGenFailure(err)
		m.confirmWithoutProbe(old.ID)
		return
	}
	m.Stats.GeneratedProbes++
	m.startPending(old.ID, p, packet.ExpectAbsent)
}

// findRule locates the referenced rule by cookie, falling back to strict
// match+priority lookup.
func (m *Monitor) findRule(cookie uint64, match flowtable.Match, priority int) *flowtable.Rule {
	if r, ok := m.expected.Get(cookie); ok {
		return r
	}
	for _, r := range m.expected.Rules() {
		if r.Priority == priority && r.Match.Equal(match) {
			return r
		}
	}
	return nil
}

// handleControllerBarrier forwards the barrier and gates the reply on all
// currently unconfirmed (and queued) updates.
func (m *Monitor) handleControllerBarrier(xid uint32) {
	pb := &pendingBarrier{xid: xid, waitingRules: make(map[uint64]bool)}
	for id := range m.pending {
		pb.waitingRules[id] = true
	}
	for _, q := range m.queued {
		pb.waitingRules[q.fm.Cookie] = true
	}
	m.barriers = append(m.barriers, pb)
	m.forwardToSwitch(openflow.BarrierRequest{}, xid)
}

// handleSwitchBarrierReply resolves the matching gated barrier; it returns
// false when the barrier was not one Monocle is gating.
func (m *Monitor) handleSwitchBarrierReply(xid uint32) bool {
	for _, pb := range m.barriers {
		if pb.xid == xid && !pb.switchAcked {
			pb.switchAcked = true
			m.releaseBarriers()
			return true
		}
	}
	return false
}

// releaseBarriers answers every gated barrier whose conditions hold, in
// order; barriers are FIFO so release stops at the first blocked one.
func (m *Monitor) releaseBarriers() {
	for len(m.barriers) > 0 {
		pb := m.barriers[0]
		if !pb.switchAcked || len(pb.waitingRules) > 0 {
			return
		}
		m.barriers = m.barriers[1:]
		m.forwardToController(openflow.BarrierReply{}, pb.xid)
	}
}

// confirmRule finalizes a released update: callbacks, barrier release,
// drop-postpone follow-up, queued-update drain. Only an update a probe
// actually went out for counts as a confirmation.
func (m *Monitor) confirmRule(pu *pendingUpdate, probed bool) {
	delete(m.pending, pu.ruleID)
	if probed {
		m.Stats.Confirmations++
	}

	if pu.postponed != nil {
		m.finishDropPostpone(pu.postponed)
	}
	for _, f := range pu.onConfirm {
		f()
	}
	if m.Cfg.OnRuleConfirmed != nil {
		m.Cfg.OnRuleConfirmed(pu.ruleID, m.Sim.Now())
	}
	for _, pb := range m.barriers {
		delete(pb.waitingRules, pu.ruleID)
	}
	m.releaseBarriers()
	m.drainQueue()
}

// confirmWithoutProbe resolves updates we cannot probe: they are treated
// as confirmed for barrier purposes (the switch barrier still orders them)
// but no data plane verification happened.
func (m *Monitor) confirmWithoutProbe(ruleID uint64) {
	if m.Cfg.OnRuleConfirmed != nil {
		m.Cfg.OnRuleConfirmed(ruleID, m.Sim.Now())
	}
	for _, pb := range m.barriers {
		delete(pb.waitingRules, ruleID)
	}
	m.releaseBarriers()
	m.drainQueue()
}

// finishDropPostpone swaps the confirmed marked rule for the real drop.
func (m *Monitor) finishDropPostpone(pd *postponedDrop) {
	wm, err := openflow.FromMatch(pd.match)
	if err != nil {
		return
	}
	fm := &openflow.FlowMod{
		Match:    wm,
		Cookie:   pd.cookie,
		Command:  openflow.FCModify,
		Priority: pd.priority,
		BufferID: openflow.BufferNone,
		OutPort:  openflow.PortNone,
	}
	if r, ok := m.expected.Get(pd.cookie); ok {
		_ = m.expected.Modify(r.ID, nil)
		m.tableChanged(pd.match)
	}
	m.forwardToSwitch(fm, m.virtXID())
}

// drainQueue re-processes queued updates that no longer overlap pending
// ones, preserving arrival order.
func (m *Monitor) drainQueue() {
	for len(m.queued) > 0 {
		q := m.queued[0]
		if m.overlapsPending(q.fm) {
			return // head-of-line stays ordered with respect to overlaps
		}
		m.queued = m.queued[1:]
		m.processFlowMod(q.fm, q.xid)
	}
}

// virtXID allocates transaction ids for Monocle-originated messages.
func (m *Monitor) virtXID() uint32 {
	m.nextVirtXID++
	return 0x4d000000 | m.nextVirtXID&0xffffff
}
