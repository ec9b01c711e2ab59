package monocle_test

// Canonical witnesses, end to end: a Verifier's probes depend on its
// table, not on the order its table was built in, the sweeps it ran or
// the results it kept. FuzzCanonicalWitness drives a live Verifier
// through random table ops and, after every op, compares its sweep with
// a fresh Verifier's sweep of the same rules, record for record
// (TestProbeForMatchesSweep covers the rule-op path).

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"monocle"
)

// sweepRecords renders a Verifier's sweep as ResultRecord JSON lines.
func sweepRecords(t *testing.T, v *monocle.Verifier) []string {
	t.Helper()
	var out []string
	for _, res := range v.Sweep(context.Background()) {
		b, err := json.Marshal(monocle.NewResultRecord(0, 0, res))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// freshVerifier builds a Verifier holding copies of v's rules, installed
// in v's table order.
func freshVerifier(t *testing.T, v *monocle.Verifier, opts []monocle.Option) *monocle.Verifier {
	t.Helper()
	fresh, err := monocle.NewVerifier(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Install(cloneRules(v.Rules())...); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func FuzzCanonicalWitness(f *testing.F) {
	f.Add(int64(1), false, []byte{0, 1, 2, 3, 4, 5, 2, 2, 6, 3})
	f.Add(int64(2), true, []byte{4, 4, 2, 5, 1, 3, 6, 2, 0, 4, 3})
	f.Add(int64(3), false, []byte{4, 2, 4, 2, 4, 3, 4, 3, 5, 5})
	f.Add(int64(-42), true, []byte("canonical witnesses, whatever the history"))
	f.Fuzz(runCanonicalWitness)
}

// runCanonicalWitness applies ops, drawing each op's details from seed,
// to a live Verifier (tagged or untagged: untagged probes may take a
// spare dl_vlan value drawn from the whole table; either way dl_vlan is
// the reserved tag field no rule may rewrite) and checks its sweep
// against a fresh Verifier's after every op.
func runCanonicalWitness(t *testing.T, seed int64, tagged bool, ops []byte) {
	if len(ops) > 24 {
		ops = ops[:24]
	}
	p := monocle.StanfordDataset()
	p.Rules, p.Seed = 24, seed
	_, base := monocle.GenerateDataset(p)
	p.Seed = seed + 1
	_, extra := monocle.GenerateDataset(p)
	for _, r := range extra {
		r.ID += 1 << 16
	}
	opts := []monocle.Option{monocle.WithWorkers(2)}
	if tagged {
		opts = append(opts, monocle.WithProbeTag(3))
	}
	live, err := monocle.NewVerifier(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Install(cloneRules(base)...); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func() uint64 {
		rules := live.Rules()
		if len(rules) == 0 {
			return 0
		}
		return rules[rng.Intn(len(rules))].ID
	}
	nextVlan := uint64(1 << 20)
	for step, op := range ops {
		switch op % 7 {
		case 0: // Install up to two rules
			n := rng.Intn(3)
			if n > len(extra) {
				n = len(extra)
			}
			_ = live.Install(cloneRules(extra[:n])...)
			extra = extra[n:]
		case 1: // Add
			if len(extra) > 0 {
				_, _ = live.Add(extra[0].Clone())
				extra = extra[1:]
			}
		case 2: // Modify
			var acts []monocle.Action
			switch rng.Intn(5) {
			case 0: // drop
			case 1:
				acts = []monocle.Action{monocle.ECMP(1, monocle.PortID(2+rng.Intn(3)))}
			case 2: // a rewrite of the reserved tag field fails every probe in its scope
				acts = []monocle.Action{monocle.SetField(monocle.VlanID, 5), monocle.Output(1)}
			default:
				acts = []monocle.Action{monocle.Output(monocle.PortID(1 + rng.Intn(5)))}
			}
			_, _ = live.Modify(pick(), acts)
		case 3: // Delete
			_, _ = live.Delete(pick())
		case 4: // Add a rule pinning dl_vlan (untagged or a small VID)
			vid := []uint64{monocle.VlanNone, 0, 1, 2}[rng.Intn(4)]
			m := monocle.MatchAll().With(monocle.VlanID, monocle.Exact(monocle.VlanID, vid))
			if rng.Intn(2) == 0 {
				// Half of the address space: some rules it misses.
				m = m.With(monocle.IPDst, monocle.Prefix(monocle.IPDst, uint64(rng.Intn(2))<<31, 1))
			}
			r := &monocle.Rule{
				ID:       nextVlan,
				Priority: 3000 + rng.Intn(64),
				Match:    m,
				Actions:  []monocle.Action{monocle.Output(monocle.PortID(1 + rng.Intn(4)))},
			}
			nextVlan++
			_, _ = live.Add(r)
		case 5: // ProbeFor: the rule-op path fills the same per-rule results
			_, _ = live.ProbeFor(pick())
		default: // a sweep between ops
			live.Sweep(context.Background())
		}
		got := sweepRecords(t, live)
		want := sweepRecords(t, freshVerifier(t, live, opts))
		if len(got) != len(want) {
			t.Fatalf("step %d (op %d): live swept %d rules, fresh %d", step, op%7, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d (op %d) record %d:\n  live  %s\n  fresh %s", step, op%7, i, got[i], want[i])
			}
		}
	}
}
