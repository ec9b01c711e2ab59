package monocle

import (
	"context"
	"testing"

	"monocle/internal/dataset"
)

// TestProbeForMatchesSweep: the rule-op path (ProbeFor on a Verifier that
// never swept) finds the header the clustered sweep finds, on Stanford and
// Campus tables.
func TestProbeForMatchesSweep(t *testing.T) {
	for _, p := range []dataset.Profile{dataset.Stanford(), dataset.Campus()} {
		p.Rules = 300
		var vs [2]*Verifier
		for i := range vs {
			v, err := NewVerifier(WithProbeTag(1), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			_, rules := dataset.Generate(p)
			if err := v.Install(rules...); err != nil {
				t.Fatal(err)
			}
			vs[i] = v
		}
		compared := 0
		for _, res := range vs[0].Sweep(context.Background()) {
			probe, err := vs[1].ProbeFor(res.Rule.ID)
			if (err == nil) != (res.Err == nil) {
				t.Fatalf("%s rule %d: sweep err %v, ProbeFor err %v", p.Name, res.Rule.ID, res.Err, err)
			}
			if err != nil {
				continue
			}
			if probe.Header != res.Probe.Header {
				t.Fatalf("%s rule %d: sweep header %v, ProbeFor header %v", p.Name, res.Rule.ID, res.Probe.Header, probe.Header)
			}
			compared++
		}
		if compared == 0 {
			t.Fatalf("%s: no probe compared", p.Name)
		}
	}
}
