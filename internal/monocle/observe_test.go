package monocle

// Tests for single and batched probe observation: the timeout clamp
// regression (a non-positive timeout must mean the default, never an
// instant or infinite deadline), batch/one-shot verdict equivalence
// across several refills of the in-flight window, and the doubling copy
// schedule.

import (
	"context"
	"slices"
	"testing"
	"time"

	"monocle/internal/openflow"
	"monocle/internal/packet"
	"monocle/internal/probe"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// sweepProbes generates probes for the monitored switch's rules with
// RuleID >= minID (filtering out the preinstalled catch rules), in
// table order.
func sweepProbes(t *testing.T, tb *lineTestbed, minID uint64) []*probe.Probe {
	t.Helper()
	var out []*probe.Probe
	for _, res := range tb.mon[2].cache.GenerateAll(context.Background(), tb.mon[2].updateEpoch, 1) {
		if res.Err != nil || res.Probe == nil || res.Probe.RuleID < minID {
			continue
		}
		out = append(out, res.Probe)
	}
	return out
}

// TestObserveProbeClampsNonPositiveTimeout: observeProbe with timeout
// <= 0 must clamp to defaultObserveTimeout — resolving neither
// immediately (timeout taken literally) nor never (deadline never
// armed) — and ObserveProbeBatch must clamp identically.
func TestObserveProbeClampsNonPositiveTimeout(t *testing.T) {
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	tb.mon[2].OnControllerMessage(addFM(t, 500, 10, ip4(10, 9, 0, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	probes := sweepProbes(t, tb, 500)
	if len(probes) != 1 {
		t.Fatalf("want 1 probe, got %d", len(probes))
	}
	// Fail the rule in the data plane: with no settling catch the
	// observation can only resolve at the deadline, which exposes the
	// effective timeout value.
	tb.sw[2].FailRule(500)

	start := tb.sim.Now()
	var doneAt sim.Time = -1
	var got Verdict
	tb.mon[2].observeProbe(probes[0], packet.ExpectPresent, 0, func(v Verdict) {
		got, doneAt = v, tb.sim.Now()
	})
	tb.sim.RunUntil(start + sim.Time(defaultObserveTimeout)/2)
	if doneAt >= 0 {
		t.Fatalf("observation resolved at +%v: timeout<=0 must clamp to the default, not fire early", doneAt-start)
	}
	tb.sim.RunUntil(start + 2*sim.Time(defaultObserveTimeout))
	if doneAt < 0 {
		t.Fatal("observation never resolved: timeout<=0 must clamp to the default, not wait forever")
	}
	if elapsed := doneAt - start; elapsed != sim.Time(defaultObserveTimeout) {
		t.Fatalf("resolved after %v, want the clamped default %v", elapsed, defaultObserveTimeout)
	}
	if got != VerdictAbsent {
		t.Fatalf("verdict %v, want %v for a failed rule", got, VerdictAbsent)
	}

	// The batch path must apply the identical clamp.
	start = tb.sim.Now()
	batchAt := sim.Time(-1)
	var batchV Verdict
	tb.mon[2].ObserveProbeBatch(probes, []packet.Expectation{packet.ExpectPresent}, 0, func(_ int, v Verdict) {
		batchV, batchAt = v, tb.sim.Now()
	})
	tb.sim.RunUntil(start + 2*sim.Time(defaultObserveTimeout))
	if batchAt < 0 {
		t.Fatal("batch observation never resolved with timeout<=0")
	}
	if elapsed := batchAt - start; elapsed != sim.Time(defaultObserveTimeout) {
		t.Fatalf("batch resolved after %v, want the clamped default %v", elapsed, defaultObserveTimeout)
	}
	if batchV != got {
		t.Fatalf("batch verdict %v != one-shot verdict %v", batchV, got)
	}
}

// TestObserveProbeBatchMatchesOneShot: the pipelined batch reports the
// same per-probe verdicts as sequential one-shot observations. The batch
// holds more than twice observeWindow probes, so the window refills at
// least twice mid-batch.
func TestObserveProbeBatchMatchesOneShot(t *testing.T) {
	const timeout = 200 * time.Millisecond
	const n = 2*observeWindow + 12
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	for i := 0; i < n; i++ {
		tb.mon[2].OnControllerMessage(addFM(t, uint64(500+i), 10, ip4(10, 9, 1, uint64(i)), 2), uint32(i))
	}
	tb.sim.RunUntil(time.Second)
	probes := sweepProbes(t, tb, 500)
	if len(probes) != n {
		t.Fatalf("want %d probes, got %d", n, len(probes))
	}
	for _, id := range []uint64{502, 507, 511, 500 + observeWindow, 500 + 2*observeWindow + 3} {
		tb.sw[2].FailRule(id)
	}
	expects := make([]packet.Expectation, len(probes))
	for i := range expects {
		expects[i] = packet.ExpectPresent
	}

	// One-shot reference: strictly sequential inject→wait→inject.
	oneShot := make([]Verdict, len(probes))
	for i, p := range probes {
		resolved := false
		tb.mon[2].observeProbe(p, expects[i], timeout, func(v Verdict) {
			oneShot[i], resolved = v, true
		})
		tb.sim.RunUntil(tb.sim.Now() + 2*sim.Time(timeout))
		if !resolved {
			t.Fatalf("one-shot observation %d never resolved", i)
		}
	}

	batch := make([]Verdict, len(probes))
	seen := make([]bool, len(probes))
	delivered := 0
	tb.mon[2].ObserveProbeBatch(probes, expects, timeout, func(i int, v Verdict) {
		if seen[i] {
			t.Fatalf("verdict for probe %d delivered twice", i)
		}
		batch[i], seen[i] = v, true
		delivered++
	})
	tb.sim.RunUntil(tb.sim.Now() + sim.Time(len(probes))*2*sim.Time(timeout))
	if delivered != len(probes) {
		t.Fatalf("%d/%d verdicts delivered", delivered, len(probes))
	}
	absent := 0
	for i := range probes {
		if batch[i] != oneShot[i] {
			t.Fatalf("probe %d verdict %v != one-shot %v", i, batch[i], oneShot[i])
		}
		if batch[i] == VerdictAbsent {
			absent++
		}
	}
	if absent != 5 {
		t.Fatalf("%d probes judged absent, want the 5 failed rules", absent)
	}
}

// copyTimes records, relative to the moment it is called, when the
// monitored switch's Monitor sends each probe copy (PacketOut).
func copyTimes(tb *lineTestbed) *[]time.Duration {
	var at []time.Duration
	start := tb.sim.Now()
	sw := tb.sw[2]
	tb.mon[2].ToSwitch = func(msg openflow.Message, xid uint32) {
		if _, ok := msg.(*openflow.PacketOut); ok {
			at = append(at, time.Duration(tb.sim.Now()-start))
		}
		sw.FromController(msg, xid)
	}
	return &at
}

// TestObserveCopySchedule pins the bounded scheduler's doubling gaps on
// the virtual clock: the second copy goes out minRTO after the
// first, each later gap is twice the last, and no copy goes out that
// could not be one minRTO old when the window closes.
func TestObserveCopySchedule(t *testing.T) {
	const window = 150 * time.Millisecond
	ms := time.Millisecond
	tb := newLineTestbed(t, switchsim.Ideal(), func(c *Config) {
		c.Ports = append(c.Ports, 3)
		c.PortPeer[3] = HostPeer
	})
	// 700 leaves toward a host: its Present outcome is silent. 600 beats
	// 601 for the same flow: both of its outcomes reach a catcher.
	tb.mon[2].OnControllerMessage(addFM(t, 701, 5, ip4(10, 0, 8, 1), 2), 1)
	tb.mon[2].OnControllerMessage(addFM(t, 700, 10, ip4(10, 0, 8, 1), 3), 2)
	tb.mon[2].OnControllerMessage(addFM(t, 601, 5, ip4(10, 0, 6, 1), 2), 3)
	tb.mon[2].OnControllerMessage(addFM(t, 600, 10, ip4(10, 0, 6, 1), 1), 4)
	tb.sim.RunUntil(time.Second)
	silent, both := ruleProbe(t, tb, 700), ruleProbe(t, tb, 600)
	if !tb.mon[2].outcomeSilent(silent.Present) || tb.mon[2].outcomeSilent(silent.Absent) ||
		tb.mon[2].outcomeSilent(both.Present) || tb.mon[2].outcomeSilent(both.Absent) {
		t.Fatalf("test premise: 700 must be silent only when present, 600 never silent: %+v %+v", silent, both)
	}

	observe := func(p *probe.Probe) ([]time.Duration, Verdict, time.Duration) {
		t.Helper()
		at := copyTimes(tb)
		start := tb.sim.Now()
		var got Verdict
		doneAt := time.Duration(-1)
		tb.mon[2].observeProbe(p, packet.ExpectPresent, window, func(v Verdict) {
			got, doneAt = v, time.Duration(tb.sim.Now()-start)
		})
		tb.sim.RunUntil(start + 2*sim.Time(window))
		if doneAt < 0 {
			t.Fatal("observation never resolved")
		}
		return *at, got, doneAt
	}

	// A silent probe sends every copy the window allows and is judged by
	// silence when the window closes.
	at, v, doneAt := observe(silent)
	want := []time.Duration{0, 3 * ms, 9 * ms, 21 * ms, 45 * ms, 93 * ms}
	if !slices.Equal(at, want) {
		t.Fatalf("silent probe copies at %v, want %v", at, want)
	}
	if v != VerdictConfirmed || doneAt != window {
		t.Fatalf("silent probe: %v at %v, want %v by silence at %v", v, doneAt, VerdictConfirmed, window)
	}

	// A forwarding probe settles on its first catch.
	at, v, _ = observe(both)
	if len(at) != 1 || v != VerdictConfirmed {
		t.Fatalf("forwarding probe: %v after copies at %v, want %v after one copy", v, at, VerdictConfirmed)
	}

	// A first catch contrary to the expectation (the rule has not reached
	// the data plane yet, §4.1) is followed by a second copy one
	// minRTO later, which catches the committed rule.
	rule, ok := tb.sw[2].DataTable().Get(600)
	if !ok {
		t.Fatal("rule 600 missing from the data plane")
	}
	rule = rule.Clone()
	tb.sw[2].FailRule(600)
	tb.sim.After(ms, func() {
		tb.sw[2].HealRule(600)
		if err := tb.sw[2].DataTable().Insert(rule); err != nil {
			t.Error(err)
		}
	})
	at, v, _ = observe(both)
	if !slices.Equal(at, []time.Duration{0, minRTO}) || v != VerdictConfirmed {
		t.Fatalf("contrary first catch: %v after copies at %v, want %v after copies at [0 %v]", v, at, VerdictConfirmed, minRTO)
	}
}

// TestSlowPacketOutBatchConfirms: a switch that serves PacketOuts slowly
// queues a batch's first copies behind one another, so round trips grow
// far past minRTO. Copies sent on every slot regardless would pile into
// that queue and push catches past the window; a slot owed while its
// copy is in flight keeps about one PacketOut per probe, and every
// healthy rule is confirmed.
func TestSlowPacketOutBatchConfirms(t *testing.T) {
	const n, window = 200, 150 * time.Millisecond
	for _, service := range []time.Duration{500 * time.Microsecond, time.Millisecond} {
		profile := switchsim.Ideal()
		profile.PacketOutService = service
		tb := newLineTestbed(t, profile, nil)
		for i := 0; i < n; i++ {
			tb.mon[2].OnControllerMessage(addFM(t, uint64(500+i), 10, ip4(10, 9, uint64(i/250), uint64(i%250)), 2), uint32(i))
		}
		tb.sim.RunUntil(5 * time.Second)
		probes := sweepProbes(t, tb, 500)
		if len(probes) != n {
			t.Fatalf("want %d probes, got %d", n, len(probes))
		}
		expects := make([]packet.Expectation, n) // all ExpectPresent
		at := copyTimes(tb)
		unconfirmed, delivered := 0, 0
		tb.mon[2].ObserveProbeBatch(probes, expects, window, func(_ int, v Verdict) {
			delivered++
			if v != VerdictConfirmed {
				unconfirmed++
			}
		})
		tb.sim.RunUntil(tb.sim.Now() + time.Minute)
		if delivered != n || unconfirmed != 0 {
			t.Errorf("PacketOut service %v: %d/%d verdicts, %d not confirmed", service, delivered, n, unconfirmed)
		}
		if len(*at) > n*11/10 {
			t.Errorf("PacketOut service %v: %d PacketOuts for %d probes, want at most 1.1 per probe", service, len(*at), n)
		}
	}
}

// TestContraryCatchesCopyBound: an observation whose every catch is
// contrary sends no more copies than its window has slots, however its
// round trips compare with the slot gaps: a contrary catch pays an owed
// slot, never one more copy of its own.
func TestContraryCatchesCopyBound(t *testing.T) {
	const window = 150 * time.Millisecond
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	tb.mon[2].OnControllerMessage(addFM(t, 600, 10, ip4(10, 0, 6, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	p := ruleProbe(t, tb, 600)
	for _, delay := range []time.Duration{100 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		switchsim.Connect(tb.sw[2], 2, tb.sw[3], 1, delay)
		at := copyTimes(tb)
		// The rule forwards: every catch shows Present, contrary to a
		// deletion's expectation.
		if v := observeOnce(t, tb, p, packet.ExpectAbsent, window); v != VerdictConfirmed {
			t.Fatalf("link delay %v: verdict %v, want the contrary %v", delay, v, VerdictConfirmed)
		}
		if len(*at) > 6 {
			t.Fatalf("link delay %v: %d copies, want at most the window's 6 slots", delay, len(*at))
		}
	}
}

// TestLostCopyIsResent: with an RTO longer than the last slot gap allows
// (60 ms at a 150 ms window: no slot after 45 ms), the slots a lost first
// copy keeps owed are paid once it leaves flight, one RTO after it, so a
// healthy rule is confirmed rather than judged silent at the close.
func TestLostCopyIsResent(t *testing.T) {
	const window = 150 * time.Millisecond
	tb := newLineTestbed(t, switchsim.Ideal(), nil)
	tb.mon[2].OnControllerMessage(addFM(t, 600, 10, ip4(10, 0, 6, 1), 2), 1)
	tb.sim.RunUntil(time.Second)
	p := ruleProbe(t, tb, 600)
	tb.mon[2].rtt = rttEstimator{srtt: 20 * time.Millisecond, rttvar: 10 * time.Millisecond}
	var at []time.Duration
	start, sw := tb.sim.Now(), tb.sw[2]
	tb.mon[2].ToSwitch = func(msg openflow.Message, xid uint32) {
		if _, ok := msg.(*openflow.PacketOut); ok {
			if at = append(at, time.Duration(tb.sim.Now()-start)); len(at) == 1 {
				return // the first copy is lost
			}
		}
		sw.FromController(msg, xid)
	}
	if v := observeOnce(t, tb, p, packet.ExpectPresent, window); v != VerdictConfirmed {
		t.Fatalf("verdict %v after copies at %v, want %v", v, at, VerdictConfirmed)
	}
	if want := []time.Duration{0, 60 * time.Millisecond}; !slices.Equal(at, want) {
		t.Fatalf("copies at %v, want %v", at, want)
	}
}
