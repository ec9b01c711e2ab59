package probe

// Wire safety: a probe is only useful if the packet crafted from its
// abstract header parses back to that header, because the data plane
// matches the parsed packet, not the abstract one. Both checks below sweep
// dataset tables through a tagged switch configuration and require
// packet.Craft → packet.Parse to be the identity on every field except
// in_port (switch metadata, never on the wire).

import (
	"context"
	"errors"
	"testing"

	"monocle/internal/dataset"
	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/packet"
)

// checkWireSafe sweeps tb and fails on the first probe whose crafted
// packet does not parse back to its header. It returns the probe count.
func checkWireSafe(t *testing.T, tb *flowtable.Table) int {
	t.Helper()
	cfg, err := SwitchConfig(1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, res := range NewGenerator(cfg).GenerateAll(context.Background(), tb, 2) {
		if res.Err != nil {
			continue
		}
		want := res.Probe.Header
		want.Set(header.InPort, 0)
		frame, err := packet.Craft(res.Probe.Header, nil)
		if err != nil {
			t.Fatalf("rule %d: craft %v: %v", res.Rule.ID, res.Probe.Header, err)
		}
		got, _, err := packet.Parse(frame)
		if err != nil {
			t.Fatalf("rule %d: parse of crafted %v: %v", res.Rule.ID, res.Probe.Header, err)
		}
		if got != want {
			t.Fatalf("rule %d: crafted %v parses as %v", res.Rule.ID, want, got)
		}
		probes++
	}
	return probes
}

// TestProbesAreWireSafe sweeps Stanford and Campus tables at several seeds.
func TestProbesAreWireSafe(t *testing.T) {
	for _, prof := range []dataset.Profile{dataset.Stanford(), dataset.Campus()} {
		for seed := int64(1); seed <= 3; seed++ {
			p := prof
			p.Rules, p.Seed = 300, seed
			tb, _ := dataset.Generate(p)
			if n := checkWireSafe(t, tb); n == 0 {
				t.Fatalf("%s seed %d: no probes; the check is vacuous", p.Name, seed)
			}
		}
	}
}

// FuzzProbeWireSafe draws the table (profile, size, seed) from the input.
func FuzzProbeWireSafe(f *testing.F) {
	f.Add(int64(1), uint8(60), false)
	f.Add(int64(2), uint8(120), true)
	f.Add(int64(0x5714f02d), uint8(200), false)
	f.Fuzz(func(t *testing.T, seed int64, rules uint8, campus bool) {
		p := dataset.Stanford()
		if campus {
			p = dataset.Campus()
		}
		p.Rules, p.Seed = 2+int(rules), seed
		tb, _ := dataset.Generate(p)
		checkWireSafe(t, tb)
	})
}

// TestUnrepresentableICMPRuleIsUnmonitorable: a rule whose own match needs
// an ICMP "port" above 255 can have no wire-safe probe, on the one-shot
// path and in a sweep alike.
func TestUnrepresentableICMPRuleIsUnmonitorable(t *testing.T) {
	icmp := flowtable.MatchAll().WithExact(header.EthType, header.EthTypeIPv4).
		WithExact(header.IPProto, header.ProtoICMP)
	bad := &flowtable.Rule{ID: 1, Priority: 20, Match: icmp.WithExact(header.TPSrc, 1000),
		Actions: []flowtable.Action{flowtable.Output(2)}}
	good := &flowtable.Rule{ID: 2, Priority: 10, Match: icmp.WithExact(header.TPSrc, 8),
		Actions: []flowtable.Action{flowtable.Output(3)}}
	tb := newTable(t, flowtable.MissDrop, bad, good)
	g := gen()
	if _, err := g.Generate(tb, bad); !errors.Is(err, ErrUnmonitorable) {
		t.Fatalf("one-shot probe for tp_src=1000 over ICMP: err %v, want ErrUnmonitorable", err)
	}
	res := g.GenerateAll(context.Background(), tb, 1)
	if !errors.Is(res[0].Err, ErrUnmonitorable) {
		t.Fatalf("swept probe for tp_src=1000 over ICMP: err %v, want ErrUnmonitorable", res[0].Err)
	}
	if res[1].Err != nil || res[1].Probe.Header.Get(header.TPSrc) != 8 {
		t.Fatalf("ICMP type 8 rule: %+v", res[1])
	}
}
