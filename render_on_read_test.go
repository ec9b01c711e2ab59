package monocle_test

import (
	"context"
	"reflect"
	"testing"

	"monocle"
)

// TestSweepRoundRendersOnRead: an unchanged round over 8x200 simulated
// switches allocates only what observing and folding its events needs —
// no ResultRecord is rendered unless a reader asks for one — and the
// records LastSweep renders on read are exactly those of a fleet sweep at
// the same epochs.
func TestSweepRoundRendersOnRead(t *testing.T) {
	const switches, rules = 8, 200
	svc := roundService(t, switches, rules)
	ctx := context.Background()

	// Rendering every record (a ProbeRecord and a header map per emission)
	// costs well over 6 allocations per rule on its own.
	const maxPerRule = 6
	allocs := testing.AllocsPerRun(5, func() { svc.SweepRound(ctx) })
	if perRule := allocs / (switches * rules); perRule > maxPerRule {
		t.Fatalf("one unchanged round allocates %.1f times per rule, want at most %d", perRule, maxPerRule)
	}

	got := svc.LastSweep()
	evs := svc.Fleet().Sweep(ctx)
	if len(got) != switches*rules || len(evs) != len(got) {
		t.Fatalf("LastSweep has %d records, fleet sweep %d events, want %d", len(got), len(evs), switches*rules)
	}
	want := make([]monocle.ResultRecord, len(evs))
	for i, ev := range evs {
		want[i] = ev.Record()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LastSweep records differ from the fleet sweep's rendered events")
	}
}
