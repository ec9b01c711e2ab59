package monocle

// Probe observation: ObserveProbeBatch injects probes into the monitored
// switch's data plane and reports the verdict of each response,
// independent of the dynamic-update and steady-state machinery. It is the
// primitive the library's switch backends (the TCP proxy driver) use to
// judge externally generated probes — a facade Verifier's sweep or
// confirmation probe — against live hardware.

import (
	"time"

	"monocle/internal/header"
	"monocle/internal/packet"
	"monocle/internal/probe"
	"monocle/internal/sim"
)

// defaultObserveTimeout bounds one probe observation when the caller
// passes no timeout.
const defaultObserveTimeout = 2 * time.Second

// probeObserver tracks one probe observation across injections.
type probeObserver struct {
	probe    *probe.Probe
	expect   packet.Expectation
	done     func(Verdict)
	finished bool
	caught   bool
	last     Verdict
	retry    *sim.Timer
	deadline *sim.Timer
	// seqs are the observer's injected sequence numbers, so release is
	// O(injections) instead of a scan of the whole inflight map — the
	// scan was quadratic across a large ObserveProbeBatch.
	seqs []uint64
}

// observeProbe injects probe p and reports, through done, the verdict of
// the data plane's response: the probe is re-injected every retry interval
// until a catch settles the expectation (Present evidence for additions
// and modifications, Absent evidence for deletions) or the timeout
// (non-positive: defaultObserveTimeout) elapses. On timeout the last
// observed verdict is reported; with no catch at all the silence itself is
// judged — a probe whose expected outcome is uncatchable (a drop, or every
// emission exiting toward hosts) confirms by silence, anything else is
// VerdictUnexpected. It runs on the event-loop thread; done fires there
// too.
func (m *Monitor) observeProbe(p *probe.Probe, expect packet.Expectation, timeout time.Duration, done func(Verdict)) {
	if timeout <= 0 {
		timeout = defaultObserveTimeout
	}
	retry := m.retryInterval()
	ob := &probeObserver{probe: p, expect: expect, done: done}
	ob.deadline = m.Sim.After(timeout, func() {
		m.finishObserver(ob, m.timeoutVerdict(ob))
	})
	var tick func()
	tick = func() {
		if ob.finished {
			return
		}
		m.injectForObserver(ob)
		if !ob.finished {
			ob.retry = m.Sim.After(retry, tick)
		}
	}
	tick()
}

// injectForObserver sends one probe copy and tags its inflight entry with
// the observer so the catch routes back here.
func (m *Monitor) injectForObserver(ob *probeObserver) {
	seq := m.injectProbe(ob.probe, false, ob.expect)
	if seq == 0 {
		// The probe packet cannot be crafted onto the wire (non-IPv4
		// header): a live driver cannot verify this rule.
		m.finishObserver(ob, VerdictUnexpected)
		return
	}
	m.inflight[seq].observer = ob
	ob.seqs = append(ob.seqs, seq)
}

// observerCatch judges a caught probe owned by an observer. Evidence that
// settles the expectation finishes the observation; anything else keeps
// the retries going (the update may not have committed yet).
func (m *Monitor) observerCatch(ob *probeObserver, catcher uint32, obs header.Header) {
	if ob.finished {
		return
	}
	v := m.judge(ob.probe, catcher, obs)
	ob.caught = true
	ob.last = v
	if judgeForKind(ob.expect, v) == VerdictConfirmed {
		m.finishObserver(ob, v)
	}
}

// timeoutVerdict resolves an observation window that ended without a
// settling catch.
func (m *Monitor) timeoutVerdict(ob *probeObserver) Verdict {
	if ob.caught {
		return ob.last
	}
	presentSilent := m.outcomeSilent(ob.probe.Present)
	absentSilent := m.outcomeSilent(ob.probe.Absent)
	switch {
	case presentSilent && !absentSilent:
		return VerdictConfirmed
	case absentSilent && !presentSilent:
		return VerdictAbsent
	default:
		return VerdictUnexpected
	}
}

// observeWindow caps the observations one ObserveProbeBatch keeps in
// flight at once.
const observeWindow = 64

// batchRun drives one ObserveProbeBatch: an in-flight window of
// concurrent observeProbe observations, refilled as each completes. All
// state is event-loop-owned.
type batchRun struct {
	m       *Monitor
	probes  []*probe.Probe
	expects []packet.Expectation
	timeout time.Duration
	done    func(int, Verdict)

	next    int  // next probe index to start
	active  int  // observations in flight
	filling bool // re-entrance guard for fill
}

// ObserveProbeBatch judges probes[i] against expects[i], pipelined: up to
// observeWindow observations run concurrently — an in-flight window
// instead of inject→wait→inject — so one batch call replaces N round
// trips. done(i, v) fires once per probe on the event-loop thread, in
// completion order. A non-positive timeout means defaultObserveTimeout.
// len(expects) must equal len(probes). Like every Monitor method, it
// must run on the event-loop thread.
func (m *Monitor) ObserveProbeBatch(probes []*probe.Probe, expects []packet.Expectation, timeout time.Duration, done func(int, Verdict)) {
	br := &batchRun{m: m, probes: probes, expects: expects, timeout: timeout, done: done}
	br.fill()
}

// fill tops the in-flight window back up. An observation that finishes
// synchronously (a probe that cannot be crafted resolves inside
// observeProbe) re-enters fill from within the loop; the guard returns
// early there, and the running loop re-checks the window and claims the
// freed slot itself.
func (br *batchRun) fill() {
	if br.filling {
		return
	}
	br.filling = true
	for br.next < len(br.probes) && br.active < observeWindow {
		i := br.next
		br.next++
		br.active++
		br.m.observeProbe(br.probes[i], br.expects[i], br.timeout, func(v Verdict) {
			br.active--
			if br.done != nil {
				br.done(i, v)
			}
			br.fill()
		})
	}
	br.filling = false
}

// finishObserver reports the verdict once and releases the observer's
// timers and inflight entries.
func (m *Monitor) finishObserver(ob *probeObserver, v Verdict) {
	if ob.finished {
		return
	}
	ob.finished = true
	if ob.retry != nil {
		ob.retry.Cancel()
	}
	if ob.deadline != nil {
		ob.deadline.Cancel()
	}
	for _, seq := range ob.seqs {
		if fl, ok := m.inflight[seq]; ok && fl.observer == ob {
			delete(m.inflight, seq)
		}
	}
	if ob.done != nil {
		ob.done(v)
	}
}
