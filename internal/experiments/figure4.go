package experiments

// Figure 4: time to detect a configured threshold of rule failures after a
// rule/link failure, with 1000 rules in the monitored switch's flow table
// and a 500 probes/s budget (§8.1.1). The monitored switch sits at the
// center of a 4-leaf star, like the paper's HP 5406zl surrounded by four
// OVS instances.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"monocle/internal/controller"
	"monocle/internal/flowtable"
	"monocle/internal/sim"
	"monocle/internal/switchsim"
)

// Figure4Scenario is one CDF line: raise the alarm after Threshold
// individual failures out of Fail simultaneously failed rules; FailLink
// instead fails the leaf-4 link (the paper's 102-rule link).
type Figure4Scenario struct {
	Label     string
	Fail      int
	Threshold int
	FailLink  bool
}

// Figure4Config parameterizes the experiment.
type Figure4Config struct {
	Rules     int
	Reps      int
	Seed      int64
	Scenarios []Figure4Scenario
}

// DefaultFigure4 reproduces the paper's parameters (Reps is lowered from
// 1000; raise it via cmd/experiments -reps for the full CDF).
func DefaultFigure4(reps int) Figure4Config {
	return Figure4Config{
		Rules: 1000, Reps: reps, Seed: 4,
		Scenarios: []Figure4Scenario{
			{Label: "1 out of 1", Fail: 1, Threshold: 1},
			{Label: "3 out of 5", Fail: 5, Threshold: 3},
			{Label: "5 out of 5", Fail: 5, Threshold: 5},
			{Label: "3 out of 10", Fail: 10, Threshold: 3},
			{Label: "5 out of 102 (link)", Fail: 102, Threshold: 5, FailLink: true},
		},
	}
}

// Figure4Result holds per-scenario sorted detection-time samples.
type Figure4Result struct {
	Series map[string][]time.Duration
}

// RunFigure4 executes the experiment.
func RunFigure4(cfg Figure4Config) Figure4Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	const linkRules = 102 // rules pinned to the leaf-4 link, as in the paper

	net := Build(NetConfig{
		N: 5,
		Links: []LinkSpec{
			{A: 0, B: 1, PA: 1, PB: 1},
			{A: 0, B: 2, PA: 2, PB: 1},
			{A: 0, B: 3, PA: 3, PB: 1},
			{A: 0, B: 4, PA: 4, PB: 1},
		},
		Profile: func(i int) switchsim.Profile {
			if i == 0 {
				return switchsim.HP5406zl()
			}
			return switchsim.OVS()
		},
		Monocle: true,
		Seed:    cfg.Seed,
	})
	mon := net.Monitors[0]
	sw := net.Switches[0]

	// Install the L3 table: rule i forwards flow i out one of the four
	// links. Exactly `linkRules` rules are pinned to port 4, striped
	// through the table (and hence through the probing cycle) the way
	// a real routing table interleaves next-hops, so the link-failure
	// scenario fails 102 rules spread across the cycle.
	rules := make([]*flowtable.Rule, cfg.Rules)
	stride := cfg.Rules / linkRules
	if stride < 1 {
		stride = 1
	}
	var linkSet []*flowtable.Rule
	for i := 0; i < cfg.Rules; i++ {
		f := controller.FlowForIndex(i)
		out := flowtable.PortID(1 + (i % 3))
		if i%stride == 0 && len(linkSet) < linkRules {
			out = 4
		}
		r := &flowtable.Rule{
			ID:       f.RuleID(0),
			Priority: 100,
			Match:    f.Match(),
			Actions:  []flowtable.Action{flowtable.Output(out)},
		}
		rules[i] = r
		if out == 4 {
			linkSet = append(linkSet, r)
		}
		if err := mon.Preinstall(r); err != nil {
			panic(fmt.Sprintf("figure4: %v", err))
		}
		if err := sw.DataTable().Insert(r.Clone()); err != nil {
			panic(fmt.Sprintf("figure4: %v", err))
		}
	}
	// The leaf-4 link handle for the link-failure scenario.
	leafLink := relinkStar(net)

	var alarms []struct {
		rule uint64
		at   sim.Time
	}
	mon.Cfg.OnAlarm = func(ruleID uint64, at sim.Time) {
		alarms = append(alarms, struct {
			rule uint64
			at   sim.Time
		}{ruleID, at})
	}
	mon.StartSteadyState()
	// Warm up: one full cycle generates and caches every probe.
	cycle := time.Duration(float64(cfg.Rules)/mon.Cfg.ProbeRate*float64(time.Second)) + 500*time.Millisecond
	net.Sim.RunUntil(2 * cycle)

	res := Figure4Result{Series: make(map[string][]time.Duration)}
	for _, sc := range cfg.Scenarios {
		var samples []time.Duration
		for rep := 0; rep < cfg.Reps; rep++ {
			// Choose victims.
			var victims []*flowtable.Rule
			if sc.FailLink {
				victims = linkSet
			} else {
				perm := rng.Perm(cfg.Rules)
				for _, idx := range perm {
					if len(victims) == sc.Fail {
						break
					}
					if rules[idx].ForwardingSet()[0] != 4 {
						victims = append(victims, rules[idx])
					}
				}
			}
			// Randomize the failure instant within the probing cycle.
			net.Sim.RunUntil(net.Sim.Now() + time.Duration(rng.Int63n(int64(cycle))))
			t0 := net.Sim.Now()
			alarms = alarms[:0]
			victimSet := map[uint64]bool{}
			if sc.FailLink {
				leafLink.Fail()
				for _, v := range victims {
					victimSet[v.ID] = true
				}
			} else {
				for _, v := range victims {
					sw.FailRule(v.ID)
					victimSet[v.ID] = true
				}
			}
			// Run until the threshold-th victim alarm.
			deadline := t0 + 2*cycle + 2*time.Second
			detected := sim.Time(-1)
			for net.Sim.Now() < deadline && detected < 0 {
				net.Sim.RunUntil(net.Sim.Now() + 10*time.Millisecond)
				count := 0
				for _, a := range alarms {
					if victimSet[a.rule] {
						count++
						if count >= sc.Threshold {
							detected = a.at
							break
						}
					}
				}
			}
			if detected >= 0 {
				samples = append(samples, time.Duration(detected-t0))
			}
			// Heal for the next repetition.
			if sc.FailLink {
				leafLink.Heal()
			} else {
				for _, v := range victims {
					sw.HealRule(v.ID)
					_ = sw.DataTable().Insert(v.Clone())
				}
			}
			// Let the monitor observe recovery (clears failure state).
			net.Sim.RunUntil(net.Sim.Now() + cycle + 500*time.Millisecond)
		}
		res.Series[sc.Label] = Durations(samples)
	}
	mon.StopSteadyState()
	return res
}

// relinkStar rebuilds the leaf-4 link with a handle we can fail. Build
// does not return link handles, so the star harness re-wires that one
// link explicitly.
func relinkStar(net *Net) *switchsim.Link {
	return switchsim.Connect(net.Switches[0], 4, net.Switches[4], 1, 50*time.Microsecond)
}

// FormatFigure4 renders the result like the paper's CDF description, one
// series per line, sorted by label.
func FormatFigure4(r Figure4Result) string {
	out := "Figure 4: time to detect >=x of y failed rules (1000 rules, 500 probes/s)\n"
	labels := make([]string, 0, len(r.Series))
	for label := range r.Series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		s := r.Series[label]
		if len(s) == 0 {
			out += fmt.Sprintf("  %-22s no detections\n", label)
			continue
		}
		out += fmt.Sprintf("  %-22s n=%d p10=%v p50=%v p90=%v max=%v\n",
			label, len(s), Percentile(s, 0.1), Percentile(s, 0.5), Percentile(s, 0.9), s[len(s)-1])
	}
	return out
}

// Interface check: the harness satisfies the controller's resolver.
var _ controller.PortResolver = (*Net)(nil)
