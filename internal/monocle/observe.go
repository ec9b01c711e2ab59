package monocle

// Probe observation: the one inject/catch/settle lifecycle every client of
// the Monitor shares. Sweep and rule-op observations (observeProbe and
// ObserveProbeBatch, the primitive the library's TCP proxy driver judges
// externally generated probes with), steady-state attempts (§8.1.1) and
// pending §4.1 updates each own an observation; they differ only in their
// scheduler — when copies are injected and whether a window closes — and
// in the callback that receives the verdict.

import (
	"time"

	"monocle/internal/packet"
	"monocle/internal/probe"
	"monocle/internal/sim"
)

// defaultObserveTimeout bounds one probe observation when the caller
// passes no timeout.
const defaultObserveTimeout = 2 * time.Second

// observation tracks one probe across its injected copies and settles it
// by one rule:
//
//  1. a catch showing the expected evidence — Present for additions and
//     modifications, Absent for deletions — finishes it at once;
//  2. a contrary catch is recorded and never finishes it early (§4.1: the
//     update may not have reached the data plane yet);
//  3. it is silent when its newest copy is unanswered and at least its
//     RTO old: the Monitor's (rttEstimator), raised to the longest round
//     trip its own catches measured plus minRTO, so a late catch over a
//     slower link than the Monitor's others is not mistaken for silence
//     (a younger unanswered copy is in flight). Silence is evidence of
//     whichever outcome cannot reach a catcher (silenceVerdict, §3.3);
//  4. when a bounded window closes, a silent observation, or one that
//     never caught anything, reports the silence verdict; any other
//     reports its last catch.
//
// Bounded observations consult rule 3 only when their window closes; the
// unbounded pending update consults it at every prober visit.
type observation struct {
	probe  *probe.Probe
	expect packet.Expectation
	done   func(Verdict)

	copies   []sentCopy    // injected copies, oldest first
	rtt      time.Duration // longest round trip of a caught copy
	owed     bool          // a copy slot passed while the newest copy was in flight
	caught   bool
	last     Verdict
	finished bool
	retry    *sim.Timer
	deadline *sim.Timer
}

// sentCopy is one injected copy of an observation's probe.
type sentCopy struct {
	seq uint64
	at  sim.Time
}

// rttEstimator is the Monitor's RFC 6298 round-trip estimator, fed by every
// caught copy (each has its own seq, so none is ambiguous); srtt 0: none yet.
type rttEstimator struct{ srtt, rttvar time.Duration }

func (e *rttEstimator) sample(r time.Duration) {
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
		return
	}
	e.rttvar += ((e.srtt - r).Abs() - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// rto is SRTT + 4·RTTVAR, never below minRTO (minRTO before any sample).
func (e *rttEstimator) rto() time.Duration { return max(minRTO, e.srtt+4*e.rttvar) }

// caughtCopy feeds the round trip of the copy seq just caught to the
// Monitor's estimator and the observation's longest.
func (m *Monitor) caughtCopy(ob *observation, seq uint64) {
	for i := len(ob.copies) - 1; i >= 0; i-- {
		if ob.copies[i].seq == seq {
			r := m.Sim.Now() - ob.copies[i].at
			m.rtt.sample(r)
			ob.rtt = max(ob.rtt, r)
			return
		}
	}
}

// rto is the observation's RTO (rule 3).
func (m *Monitor) rto(ob *observation) time.Duration { return max(m.rtt.rto(), ob.rtt+minRTO) }

// unanswered reports whether the newest copy is unanswered (a catch
// removes its inflight entry), and how long until it is its RTO old.
func (m *Monitor) unanswered(ob *observation) (left time.Duration, ok bool) {
	if n := len(ob.copies); n > 0 {
		_, ok = m.inflight[ob.copies[n-1].seq]
		left = ob.copies[n-1].at + m.rto(ob) - m.Sim.Now()
	}
	return left, ok
}

// inFlight reports whether a new copy would only queue behind the newest.
func (m *Monitor) inFlight(ob *observation) bool {
	left, ok := m.unanswered(ob)
	return ok && left > 0
}

// silent applies rule 3.
func (m *Monitor) silent(ob *observation) bool {
	left, ok := m.unanswered(ob)
	return ok && left <= 0
}

// catch applies rules 1 and 2 to one piece of evidence; it reports
// whether the evidence settled the observation.
func (m *Monitor) catch(ob *observation, v Verdict) bool {
	ob.caught, ob.last = true, v
	settles := v == VerdictConfirmed && ob.expect != packet.ExpectAbsent ||
		v == VerdictAbsent && ob.expect == packet.ExpectAbsent
	if settles {
		m.finish(ob, v)
	}
	return settles
}

// silenceVerdict judges silence as an observation of the outcomes no
// catcher can see: a probe whose Present outcome is uncatchable (a drop,
// or every emission exiting toward hosts) and whose Absent outcome is not
// shows Present by silence, and vice versa.
func (m *Monitor) silenceVerdict(p *probe.Probe) Verdict {
	return Classify(m.outcomeSilent(p.Present), m.outcomeSilent(p.Absent))
}

// observeFor is the bounded scheduler. Its copy slots double their gap
// from minRTO while a slot can be its RTO old at the close: 0, 3, 9, 21,
// 45 and 93 ms in a 150 ms window. A slot whose newest copy is in flight
// is owed, not sent: a contrary catch pays it at once (OnProbeCaught),
// and otherwise the next slot does; after the last slot, it is paid when
// that copy leaves flight unanswered (lost), if the copy can still be its
// RTO old at the close. Rule 4 closes the window after `window`, but not
// while its newest copy is in flight, and at most one window later: a
// verdict takes at most window + min(its RTO, window).
func (m *Monitor) observeFor(ob *observation, window time.Duration) {
	start := m.Sim.Now()
	limit := start + 2*window
	var closeWindow func()
	closeWindow = func() {
		switch left, ok := m.unanswered(ob); {
		case ok && left > 0 && m.Sim.Now() < limit:
			ob.deadline = m.Sim.At(min(m.Sim.Now()+left, limit), closeWindow)
		case ob.caught && !m.silent(ob):
			m.finish(ob, ob.last)
		default:
			m.finish(ob, m.silenceVerdict(ob.probe))
		}
	}
	ob.deadline = m.Sim.After(window, closeWindow)
	var at time.Duration // window offset of the next slot; the gap after it is at+minRTO
	var wake func()
	wake = func() {
		now := m.Sim.Now()
		if now >= start+at {
			ob.owed = true
			at += at + minRTO
		}
		left, ok := m.unanswered(ob)
		if ob.owed && (!ok || left <= 0) && !m.inject(ob) {
			return
		}
		next := start + at
		if ob.owed && next+m.rto(ob) > start+window {
			next = now + left
		}
		if next+m.rto(ob) <= start+window {
			ob.retry = m.Sim.At(next, wake)
		}
	}
	wake()
}

// finish reports the verdict once and releases the observation's timers
// and inflight entries; a later catch of one of its copies is stale.
func (m *Monitor) finish(ob *observation, v Verdict) {
	if ob.finished {
		return
	}
	ob.finished = true
	ob.retry.Cancel()
	ob.deadline.Cancel()
	for _, c := range ob.copies {
		delete(m.inflight, c.seq)
	}
	ob.done(v)
}

// observeProbe injects probe p and reports, through done, the verdict of
// the data plane's response, settled by the observation rule within
// observeFor's window of the timeout (non-positive: defaultObserveTimeout).
// It runs on the event-loop thread; done fires there too.
func (m *Monitor) observeProbe(p *probe.Probe, expect packet.Expectation, timeout time.Duration, done func(Verdict)) {
	if timeout <= 0 {
		timeout = defaultObserveTimeout
	}
	m.observeFor(&observation{probe: p, expect: expect, done: done}, timeout)
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
