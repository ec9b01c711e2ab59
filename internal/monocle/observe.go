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
//  3. it is silent when the newest two of its due copies are unanswered.
//     A copy is due once it is older than the longest round trip the
//     observation's own catches have measured, plus one gap, so late
//     catches are not mistaken for silence; two, not one, so a single
//     catch slower than any measured before is not either. Silence is
//     evidence of whichever outcome cannot reach a catcher
//     (silenceVerdict, §3.3's negative probing);
//  4. when a bounded window closes, a silent observation, or one that
//     never caught anything, reports the silence verdict; any other
//     reports its last catch.
//
// Bounded observations consult rule 3 only when their window closes; the
// unbounded pending update consults it at every prober visit.
type observation struct {
	probe  *probe.Probe
	expect packet.Expectation
	gap    time.Duration // spacing of the copies (of the first two, with backoff)
	// backoff doubles the gap after every copy, as TCP backs off its
	// retransmissions (RFC 6298): sweep and rule-op observations send
	// few copies however long their window. Steady-state attempts keep
	// their retries+1 evenly spaced copies (§8.1.1).
	backoff bool
	done    func(Verdict)

	copies   []sentCopy    // injected copies, oldest first
	rtt      time.Duration // longest round trip of a caught copy
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

// caughtCopy records the round trip of the copy seq that was just
// caught.
func (m *Monitor) caughtCopy(ob *observation, seq uint64) {
	for i := len(ob.copies) - 1; i >= 0; i-- {
		if ob.copies[i].seq == seq {
			ob.rtt = max(ob.rtt, m.Sim.Now()-ob.copies[i].at)
			return
		}
	}
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

// silent applies rule 3. A copy is unanswered while its inflight entry
// stands: a catch removes it.
func (m *Monitor) silent(ob *observation) bool {
	due := m.Sim.Now() - ob.rtt - ob.gap
	unanswered := 0
	for i := len(ob.copies) - 1; i >= 0 && unanswered < 2; i-- {
		c := ob.copies[i]
		if c.at > due {
			continue
		}
		if _, ok := m.inflight[c.seq]; !ok {
			return false
		}
		unanswered++
	}
	return unanswered == 2
}

// silenceVerdict judges silence as an observation of the outcomes no
// catcher can see: a probe whose Present outcome is uncatchable (a drop,
// or every emission exiting toward hosts) and whose Absent outcome is not
// shows Present by silence, and vice versa.
func (m *Monitor) silenceVerdict(p *probe.Probe) Verdict {
	return Classify(m.outcomeSilent(p.Present), m.outcomeSilent(p.Absent))
}

// closeWindow applies rule 4.
func (m *Monitor) closeWindow(ob *observation) {
	if ob.caught && !m.silent(ob) {
		m.finish(ob, ob.last)
		return
	}
	m.finish(ob, m.silenceVerdict(ob.probe))
}

// observeFor is the bounded scheduler: it injects copies ob.gap apart,
// each gap twice the last with ob.backoff, while the copy can still be
// one ob.gap old when the window closes, and closes the window after
// `window`. With backoff and a 3 ms gap, a 150 ms window carries copies
// at 0, 3, 9, 21, 45 and 93 ms.
func (m *Monitor) observeFor(ob *observation, window time.Duration) {
	ob.deadline = m.Sim.After(window, func() { m.closeWindow(ob) })
	var at time.Duration // window offset of the copy being sent
	next := ob.gap
	var tick func()
	tick = func() {
		if !m.inject(ob) || at+next+ob.gap > window {
			return
		}
		ob.retry = m.Sim.After(next, tick)
		at += next
		if ob.backoff {
			next *= 2
		}
	}
	tick()
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
// the data plane's response: the second copy goes out one retry interval
// after the first and every later gap doubles (observeFor), and the
// observation settles by the observation rule within the timeout
// (non-positive: defaultObserveTimeout). It runs on the event-loop
// thread; done fires there too.
func (m *Monitor) observeProbe(p *probe.Probe, expect packet.Expectation, timeout time.Duration, done func(Verdict)) {
	if timeout <= 0 {
		timeout = defaultObserveTimeout
	}
	m.observeFor(&observation{probe: p, expect: expect, gap: retryInterval, backoff: true, done: done}, timeout)
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
