package monocle

// The sweep round: compile each switch's probe plan, sweep, observe every
// switch's probes against its data plane, fold the verdicts into the diff
// engine, persist, deliver, and publish the round's metrics — plus Run's
// per-group cadence scheduler that paces the rounds. Each switch is one
// unit of the round from generation to fold: its plan, its Fleet member
// sweep, one ObserveBatch call on its own control channel (§7), and its
// share of the fold.

import (
	"container/heap"
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// roundPlan pairs one switch's compiled ProbePlan with the table epoch
// it was compiled against (the frozen-entry folds of unsampled rules
// need an epoch even when the switch contributed no sweep results).
type roundPlan struct {
	plan  ProbePlan
	epoch uint64
}

// compilePlans compiles the active policy against the live fleet: one
// plan per member switch whose group is named in groups (empty = every
// group), at each group's current round counter, in registration order.
// It also returns the round's scope: those switches plus every remembered
// one (see track) whose group is named. A nil policy is one implicit
// group holding every switch, planned as whole-table (nil) subsets with
// no per-rule work. Plans are deterministic — a pure function of (policy,
// switch, installed rules, group round).
func (s *Service) compilePlans(pol *Policy, groups []string) ([]roundPlan, []uint32) {
	var filter map[string]bool
	if pol != nil && len(groups) > 0 {
		filter = make(map[string]bool, len(groups))
		for _, g := range groups {
			filter[g] = true
		}
	}
	s.mu.Lock()
	rounds := make(map[string]uint64, len(s.groupStats))
	for g, gs := range s.groupStats {
		rounds[g] = gs.Rounds
	}
	s.mu.Unlock()
	var (
		plans []roundPlan
		scope []uint32
	)
	ids, members := s.switchIDs()
	for i, id := range ids {
		tags := s.tagsOf(id)
		group := pol.groupOf(id, tags)
		if filter != nil && !filter[group] {
			continue
		}
		scope = append(scope, id)
		if i >= members {
			continue // remembered: in scope, nothing to sweep
		}
		v, _ := s.fleet.Verifier(id)
		rp := roundPlan{plan: ProbePlan{Switch: id, Group: group}, epoch: v.Epoch()}
		if pol != nil {
			rp.plan = pol.Plan(id, tags, v.Rules(), rounds[group])
		}
		plans = append(plans, rp)
	}
	return plans, scope
}

// switchIDs returns every switch a round can scope: the first members
// ids are the fleet members in registration order, the rest the
// remembered switches (tracked but not members) in id order.
func (s *Service) switchIDs() (ids []uint32, members int) {
	ids = s.fleet.Switches()
	members = len(ids)
	var lost []uint32
	s.polMu.Lock()
	for id := range s.tags {
		if _, ok := s.fleet.Verifier(id); !ok {
			lost = append(lost, id)
		}
	}
	s.polMu.Unlock()
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return append(ids, lost...), members
}

// ProbePlans compiles the active policy against the live fleet at each
// group's next round counter and returns the per-switch plans — exactly
// what the next SweepRound will probe. Nil without a policy.
func (s *Service) ProbePlans() []ProbePlan {
	pol := s.Policy()
	if pol == nil {
		return nil
	}
	rps, _ := s.compilePlans(pol, nil)
	out := make([]ProbePlan, len(rps))
	for i, rp := range rps {
		out[i] = rp.plan
	}
	return out
}

// SweepRound runs one sweep round, judges every generated probe against
// its switch's data plane through the Backend seam, feeds the diff
// engine, finalizes the round, delivers the round's alerts to the
// attached sinks, and returns them. Run calls this on the per-group
// cadences; tests and externally-paced deployments call it directly (or
// through POST /sweep).
//
// Each planned switch is one unit of the round: the round compiles its
// probe plan, sweeps the planned rules (every switch in one Fleet call,
// which keeps the per-member sweeps apart), observes its probes in one
// ObserveBatch call — every switch at once, each on its own goroutine —
// and folds its verdicts; switches fold in registration order, rules in
// table order. The round's scope is finalized in one
// Differ.EndSweepScoped call. Without a policy the plan is one implicit
// group: every switch, whole tables. With one, groups names the policy
// groups to include (none = every group). Cancelling ctx aborts the
// round: the partial fold is discarded (no false failing-rule streaks
// from unprocessed rules), the round is not counted, and nil is
// returned.
func (s *Service) SweepRound(ctx context.Context, groups ...string) []Alert {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	start := time.Now()
	// Driver lifecycle events queued since the last round fold first, so a
	// reconnect cycle lands in the same round as the sweep that follows it.
	s.drainBackendEvents()

	plans, scope := s.compilePlans(s.Policy(), groups)
	sel := make(map[uint32][]uint64, len(plans))
	for _, rp := range plans {
		sel[rp.plan.Switch] = rp.plan.Rules
	}
	// Plans name members only, in registration order, and members never
	// leave the fleet: sweeps[i] is plans[i]'s switch.
	sweeps := s.fleet.sweepPlan(ctx, sel)

	// abort discards a cancelled round: folding its partial results would
	// turn every unprocessed rule into a false failing streak, so the
	// diff engine drops the partial fold and the round is not counted.
	abort := func() []Alert {
		s.differ.AbortSweep()
		return nil
	}
	if ctx.Err() != nil {
		return abort()
	}

	// Each switch's probes become one ObserveBatch call — one event-loop
	// post and a pipelined in-flight window on a ProxyBackend instead of
	// one serialized round trip per probe. Each switch has its own control
	// channel (§7), so the calls run concurrently, one goroutine per
	// switch with probes, and the fold waits for all of them.
	verdicts := make([][]Verdict, len(sweeps))
	errs := make([][]error, len(sweeps))
	var wg sync.WaitGroup
	for i, ms := range sweeps {
		if ms.m.be == nil {
			continue
		}
		probes := make([]*Probe, 0, len(ms.results))
		for _, res := range ms.results {
			if res.Probe != nil {
				probes = append(probes, res.Probe)
			}
		}
		if len(probes) == 0 {
			continue
		}
		expects := make([]Expectation, len(probes)) // the zero Expectation is ExpectPresent
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts[i], errs[i] = ms.m.be.ObserveBatch(ctx, probes, expects)
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return abort()
	}

	for i, ms := range sweeps {
		j := 0
		for _, res := range ms.results {
			ev := SweepEvent{SwitchID: ms.m.id, Epoch: ms.epoch, Result: res}
			if ms.m.be == nil || res.Probe == nil {
				s.differ.Observe(ev)
				continue
			}
			verdict, err := verdicts[i][j], errs[i][j]
			j++
			var div *DivergenceError
			switch {
			case err == nil:
				s.differ.ObserveVerdict(ev, verdict)
			case errors.As(err, &div):
				// A replayed session departed from its recording: the
				// loudest possible judgement, never a quiet skip — a
				// silent divergence would defeat the whole point of
				// deterministic replay.
				s.differ.ObserveVerdict(ev, VerdictUnexpected)
			case errors.Is(err, ErrBackendDisconnected), errors.Is(err, ErrBackendClosed):
				// The backend is down: record presence without judging.
				// Folding unjudged would mark the rule recovered the moment
				// the transport died (a false all-clear mid-outage);
				// dropping the event entirely would make a mid-sweep flap
				// look like the unswept rules left the table, forgetting
				// their outstanding alerts. A skipped observation does
				// neither — and a full-outage round still counts as missed,
				// so a persistent outage surfaces as switch_stalled.
				s.differ.ObserveSkipped(ev)
			default:
				// The probe was never observed (a driver's own failure; a
				// cancelled round never reaches the fold): fold the
				// generation result unjudged rather than manufacture a
				// failing verdict.
				s.differ.Observe(ev)
			}
		}
		// Matched-but-unsampled rules fold as frozen entries: still
		// tracked (their absence from the sweep must not read as "left the
		// table"), never alerted on, streaks and epochs kept. They fold at
		// the sweep's epoch when the sweep returned results, else at the
		// epoch the plan was compiled against.
		epoch := plans[i].epoch
		if len(ms.results) > 0 {
			epoch = ms.epoch
		}
		for _, rid := range plans[i].plan.Unsampled {
			s.differ.ObserveUnsampled(ms.m.id, epoch, rid)
		}
	}
	if ctx.Err() != nil {
		return abort()
	}

	// Only the swept groups' switches participate in this round: unswept
	// groups accrue neither missed-round streaks nor rule-left-table
	// inferences from a round that never probed them.
	alerts := s.differ.EndSweepScoped(scope)

	// WAL ordering: persist the round (fold state + alerts) before any
	// sink sees the alerts. A crash between the two re-delivers on the
	// next life; the reverse order would lose alerts the operator saw.
	var storeErrs uint64
	if s.store != nil {
		if err := s.store.SaveRound(s.differ.State(), alerts); err != nil {
			storeErrs++
		}
	}

	var sinkErrs uint64
	if len(alerts) > 0 {
		for _, sink := range s.sinks {
			if err := sink.Deliver(ctx, alerts); err != nil {
				sinkErrs++
			}
		}
	}

	evs := sweepEvents(sweeps)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSweep = evs
	s.metrics.Rounds++
	s.liveRounds++
	s.metrics.RulesSwept += uint64(len(evs))
	s.metrics.AlertsTotal += uint64(len(alerts))
	s.metrics.SinkErrors += sinkErrs
	s.metrics.StoreErrors += storeErrs
	for _, a := range alerts {
		s.alertsByType[a.Type.String()]++
	}
	s.metrics.LastRoundRules = len(evs)
	s.metrics.LastRoundMicros = time.Since(start).Microseconds()
	if len(evs) > 0 {
		s.metrics.LastRoundMicrosPerRule = float64(s.metrics.LastRoundMicros) / float64(len(evs))
	} else {
		s.metrics.LastRoundMicrosPerRule = 0
	}
	s.noteGroupRound(plans, sweeps)
	// Mark the completed round on every session trace and flush: a crash
	// loses at most the round in flight, and cmd/monotrace re-drives one
	// SweepRound per round mark.
	s.recMu.Lock()
	for _, rb := range s.recorders {
		rb.MarkRound(s.metrics.Rounds)
		rb.Flush()
	}
	s.recMu.Unlock()
	return alerts
}

// noteGroupRound attributes one round's results to the policy groups
// that swept and advances their round counters (the sampling sequence
// index the next plan compilation uses); sweeps[i] is plans[i]'s sweep.
// The implicit no-policy group "" keeps no stats. Callers hold s.mu.
func (s *Service) noteGroupRound(plans []roundPlan, sweeps []memberSweep) {
	groupRules := make(map[string]int)
	for i, rp := range plans {
		if rp.plan.Group != "" {
			// A group with no results still counts its round.
			groupRules[rp.plan.Group] += len(sweeps[i].results)
		}
	}
	for g, n := range groupRules {
		gs := s.groupStats[g]
		if gs == nil {
			gs = &GroupMetrics{Group: g}
			s.groupStats[g] = gs
		}
		gs.Rounds++
		gs.RulesCovered += uint64(n)
		gs.LastRoundRules = n
		gs.LastRoundMicros = s.metrics.LastRoundMicros
		if n > 0 {
			gs.LastRoundMicrosPerRule = float64(gs.LastRoundMicros) / float64(n)
		} else {
			gs.LastRoundMicrosPerRule = 0
		}
	}
}

// groupEntry is one scheduled policy group in Run's cadence heap.
type groupEntry struct {
	name  string // "" is the no-policy catch-all sweeping everything
	every time.Duration
	due   time.Time
}

// groupHeap orders entries by due time, ties broken by name so the
// schedule is deterministic.
type groupHeap []*groupEntry

func (h groupHeap) Len() int { return len(h) }
func (h groupHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].name < h[j].name
}
func (h groupHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x any)   { *h = append(*h, x.(*groupEntry)) }
func (h *groupHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// buildSchedule computes Run's sweep schedule: one entry per populated
// group at the group's declared cadence (the service interval when it
// declares none; without a policy, the one implicit group), or a single
// catch-all entry at the service interval when no switch is known.
// Groups surviving a rebuild keep their due times; new groups are due
// immediately — installing a policy mid-run starts its cadences at once.
func (s *Service) buildSchedule(prev *groupHeap, now time.Time) *groupHeap {
	prevDue := make(map[string]time.Time)
	if prev != nil {
		for _, e := range *prev {
			prevDue[e.name] = e.due
		}
	}
	h := &groupHeap{}
	add := func(name string, every time.Duration) {
		if every <= 0 {
			every = s.set.steadyInterval
		}
		due, ok := prevDue[name]
		if !ok {
			due = now
		}
		heap.Push(h, &groupEntry{name: name, every: every, due: due})
	}
	pol := s.Policy()
	seen := make(map[string]bool)
	ids, _ := s.switchIDs()
	for _, id := range ids {
		g := pol.groupOf(id, s.tagsOf(id))
		if seen[g] {
			continue
		}
		seen[g] = true
		add(g, pol.everyOf(g))
	}
	if h.Len() == 0 {
		add("", 0)
	}
	return h
}

// Run drives steady-state sweep rounds until the context is cancelled.
// Without a policy every round sweeps everything on WithSteadyInterval;
// with one, each policy group sweeps at its own cadence (a min-heap of
// next-due groups), rebuilt whenever the policy is swapped or a switch
// registers. Cancellation aborts an in-flight round cleanly — the
// partial fold is discarded rather than turned into false alerts — then
// the service is marked draining for /healthz and the context's error is
// returned.
func (s *Service) Run(ctx context.Context) error {
	// A previous Run marked the service draining on its way out; a new
	// Run is the restart-lifecycle moment to clear it, or /healthz
	// reports a healthy, sweeping service as draining forever.
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
	drain := func() error {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		return ctx.Err()
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var (
		sched *groupHeap
		ver   uint64
	)
	for {
		if v := s.planVersion(); sched == nil || v != ver {
			sched = s.buildSchedule(sched, time.Now())
			ver = v
		}
		next := (*sched)[0]
		timer.Reset(time.Until(next.due))
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return drain()
		case <-timer.C:
		}
		s.SweepRound(ctx, sweepArgs(next.name)...)
		if ctx.Err() != nil {
			return drain()
		}
		next.due = next.due.Add(next.every)
		if !next.due.After(time.Now()) {
			// The round overran its cadence: rebase instead of sweeping a
			// burst of make-up rounds.
			next.due = time.Now().Add(next.every)
		}
		heap.Fix(sched, 0)
	}
}

// sweepArgs turns a schedule entry name into SweepRound's group list
// (the catch-all entry sweeps every group).
func sweepArgs(name string) []string {
	if name == "" {
		return nil
	}
	return []string{name}
}

// LastSweep returns the most recent round's per-rule records, rendered
// on each call from the round's sweep events (nil before the first round
// and after a round that swept no rules).
func (s *Service) LastSweep() []ResultRecord {
	s.mu.Lock()
	evs := s.lastSweep
	s.mu.Unlock()
	if len(evs) == 0 {
		return nil
	}
	recs := make([]ResultRecord, len(evs))
	for i, ev := range evs {
		recs[i] = ev.Record()
	}
	return recs
}
