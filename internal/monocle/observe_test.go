package monocle

// Tests for single and batched probe observation: the timeout clamp
// regression (a non-positive timeout must mean the default, never an
// instant or infinite deadline) and batch/one-shot verdict equivalence
// across several refills of the in-flight window.

import (
	"context"
	"testing"
	"time"

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
