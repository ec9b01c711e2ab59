package experiments

import (
	"strings"
	"testing"
	"time"

	"monocle/internal/switchsim"
)

func TestFigure4SmallCDF(t *testing.T) {
	cfg := DefaultFigure4(4)
	cfg.Rules = 120
	cfg.Scenarios = []Figure4Scenario{
		{Label: "1 out of 1", Fail: 1, Threshold: 1},
		{Label: "3 out of 5", Fail: 5, Threshold: 3},
	}
	res := RunFigure4(cfg)
	for label, s := range res.Series {
		if len(s) != cfg.Reps {
			t.Fatalf("%s: detected %d/%d", label, len(s), cfg.Reps)
		}
		for _, d := range s {
			// Detection cannot beat the 150 ms alarm timeout and must
			// land within cycle (240ms for 120 rules) + timeout slack.
			if d < 150*time.Millisecond || d > 1200*time.Millisecond {
				t.Fatalf("%s: detection %v out of plausible range", label, d)
			}
		}
	}
	if FormatFigure4(res) == "" {
		t.Fatal("format")
	}
}

func TestFigure4LinkFailure(t *testing.T) {
	cfg := DefaultFigure4(3)
	cfg.Rules = 150
	cfg.Scenarios = []Figure4Scenario{
		{Label: "5 out of 102 (link)", Fail: 102, Threshold: 5, FailLink: true},
	}
	res := RunFigure4(cfg)
	s := res.Series["5 out of 102 (link)"]
	if len(s) != cfg.Reps {
		t.Fatalf("detected %d/%d", len(s), cfg.Reps)
	}
	// With 102 simultaneous failures the 5th detection lands quickly
	// (paper: ≈200 ms average with 150 ms of that being the timeout).
	for _, d := range s {
		if d > 600*time.Millisecond {
			t.Fatalf("link failure detection too slow: %v", d)
		}
	}
}

func TestFigure5MonocleEliminatesDrops(t *testing.T) {
	flows := 60
	for _, prof := range []switchsim.Profile{switchsim.HP5406zl(), switchsim.Pica8()} {
		barrier := RunFigure5(Figure5Config{
			Flows: flows, PacketRate: 300, S3Profile: prof, UseMonocle: false, Seed: 5})
		mon := RunFigure5(Figure5Config{
			Flows: flows, PacketRate: 300, S3Profile: prof, UseMonocle: true, Seed: 5})
		if barrier.Dropped <= 0 {
			t.Fatalf("%s: barrier mode should blackhole packets, got %.0f", prof.Name, barrier.Dropped)
		}
		if mon.Dropped > barrier.Dropped/20 {
			t.Fatalf("%s: Monocle still drops %.0f (barriers: %.0f)", prof.Name, mon.Dropped, barrier.Dropped)
		}
		// The total update time must stay comparable (same order).
		if mon.Total > 6*barrier.Total {
			t.Fatalf("%s: Monocle too slow: %v vs %v", prof.Name, mon.Total, barrier.Total)
		}
		completed := 0
		for _, f := range mon.Flows {
			if f.DataplaneReady > 0 {
				completed++
			}
		}
		if completed != flows {
			t.Fatalf("%s: only %d/%d flows completed under Monocle", prof.Name, completed, flows)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := RunTable2(Table2Config{Limit: 120})
	if len(rows) != 2 {
		t.Fatalf("rows %v", rows)
	}
	for _, r := range rows {
		if r.Total != 120 {
			t.Fatalf("%s: total %d", r.Dataset, r.Total)
		}
		// The paper finds probes for the vast majority of rules.
		if float64(r.Found)/float64(r.Total) < 0.8 {
			t.Fatalf("%s: found only %d/%d", r.Dataset, r.Found, r.Total)
		}
		if r.AvgMS <= 0 || r.MaxMS < r.AvgMS {
			t.Fatalf("%s: timing avg=%f max=%f", r.Dataset, r.AvgMS, r.MaxMS)
		}
	}
	if FormatTable2(rows) == "" {
		t.Fatal("format")
	}
}

// TestTable2IncrementalMatchesOneShot: the incremental engine must find
// probes for exactly as many rules as the one-shot generator.
func TestTable2IncrementalMatchesOneShot(t *testing.T) {
	oneShot := RunTable2(Table2Config{Limit: 80})
	incr := RunTable2(Table2Config{Limit: 80, Incremental: true})
	for i := range oneShot {
		if oneShot[i].Found != incr[i].Found || oneShot[i].Total != incr[i].Total {
			t.Fatalf("%s: one-shot %d/%d vs incremental %d/%d",
				oneShot[i].Dataset, oneShot[i].Found, oneShot[i].Total, incr[i].Found, incr[i].Total)
		}
	}
}

func TestTable2SweepShape(t *testing.T) {
	rows := RunTable2Sweep(100, 2)
	if len(rows) != 2 {
		t.Fatalf("rows %v", rows)
	}
	for _, r := range rows {
		if r.Rules != 100 || r.Workers != 2 {
			t.Fatalf("%s: rules=%d workers=%d", r.Dataset, r.Rules, r.Workers)
		}
		if float64(r.Found)/float64(r.Rules) < 0.8 {
			t.Fatalf("%s: found only %d/%d", r.Dataset, r.Found, r.Rules)
		}
		if r.WallMS <= 0 || r.PerRuleMS <= 0 {
			t.Fatalf("%s: timing %+v", r.Dataset, r)
		}
	}
	if FormatTable2Sweep(rows) == "" {
		t.Fatal("format")
	}
}

func TestFigure6Shape(t *testing.T) {
	points := RunFigure6()
	byName := map[string]map[int]float64{}
	for _, p := range points {
		if byName[p.Switch] == nil {
			byName[p.Switch] = map[int]float64{}
		}
		byName[p.Switch][p.K] = p.Normalized
	}
	for name, series := range byName {
		if series[0] < 0.99 {
			t.Fatalf("%s: baseline not 1.0: %f", name, series[0])
		}
		// Monotonic non-increasing in k.
		prev := series[0]
		for _, k := range Figure6Ratios[1:] {
			if series[k] > prev+0.01 {
				t.Fatalf("%s: not monotonic at k=%d", name, k)
			}
			prev = series[k]
		}
		// Paper: up to 5 PacketOuts per FlowMod (k=10) keeps ≥85% for
		// the three normal-priority switches.
		if name != switchsim.DellS4810EqualPrio().Name && series[10] < 0.80 {
			t.Fatalf("%s: %.2f at 5 PO/FM, want ≥0.80", name, series[10])
		}
	}
	// The equal-priority S4810 must be the most affected at high load.
	eq := byName[switchsim.DellS4810EqualPrio().Name][40]
	for name, series := range byName {
		if name == switchsim.DellS4810EqualPrio().Name {
			continue
		}
		if series[40] < eq {
			t.Fatalf("%s (%.2f) worse than S4810** (%.2f) at 40:2", name, series[40], eq)
		}
	}
	if FormatFigure6(points) == "" {
		t.Fatal("format")
	}
}

func TestFigure7Shape(t *testing.T) {
	points := RunFigure7()
	byName := map[string]map[int]float64{}
	for _, p := range points {
		if byName[p.Switch] == nil {
			byName[p.Switch] = map[int]float64{}
		}
		byName[p.Switch][p.PacketIns] = p.Normalized
	}
	// Normal switches nearly unaffected even at 5000 PacketIn/s.
	for name, series := range byName {
		if name == switchsim.DellS4810EqualPrio().Name {
			continue
		}
		if series[5000] < 0.85 {
			t.Fatalf("%s: %.2f at 5000 pi/s, want ≈1", name, series[5000])
		}
	}
	// S4810** drops by up to ~60%.
	eq := byName[switchsim.DellS4810EqualPrio().Name][5000]
	if eq > 0.6 || eq < 0.2 {
		t.Fatalf("S4810** at 5000 pi/s: %.2f, want a heavy (≈60%%) drop", eq)
	}
	if FormatFigure7(points) == "" {
		t.Fatal("format")
	}
}

func TestSwitchRatesMatchPaper(t *testing.T) {
	rows := RunSwitchRates()
	want := map[string][2]float64{
		"HP 5406zl":  {7006, 5531},
		"DELL S4810": {850, 401},
		"DELL 8132F": {9128, 1105},
	}
	for _, r := range rows {
		w, ok := want[r.Switch]
		if !ok {
			continue
		}
		if r.PacketOutRate < w[0]*0.9 || r.PacketOutRate > w[0]*1.1 {
			t.Fatalf("%s PacketOut %f want ≈%f", r.Switch, r.PacketOutRate, w[0])
		}
		if r.PacketInRate < w[1]*0.9 || r.PacketInRate > w[1]*1.1 {
			t.Fatalf("%s PacketIn %f want ≈%f", r.Switch, r.PacketInRate, w[1])
		}
	}
	if FormatSwitchRates(rows) == "" {
		t.Fatal("format")
	}
}

func TestFigure8MonocleOverheadModest(t *testing.T) {
	paths := 200
	results := DefaultFigure8(paths)
	var ideal, mon Figure8Result
	for _, r := range results {
		if r.Mode == "Ideal (barriers)" {
			ideal = r
		} else {
			mon = r
		}
	}
	countDone := func(r Figure8Result) int {
		n := 0
		for _, d := range r.Done {
			if d > 0 {
				n++
			}
		}
		return n
	}
	if countDone(ideal) != paths {
		t.Fatalf("ideal completed %d/%d", countDone(ideal), paths)
	}
	if countDone(mon) != paths {
		t.Fatalf("monocle completed %d/%d", countDone(mon), paths)
	}
	if mon.Total <= ideal.Total {
		t.Fatalf("monocle (%v) should trail ideal (%v) slightly", mon.Total, ideal.Total)
	}
	// The paper reports ≈350 ms extra on 2000 flows; proportionally the
	// overhead must stay well under 2× the ideal total.
	if mon.Total > 2*ideal.Total+2*time.Second {
		t.Fatalf("monocle overhead too large: %v vs %v", mon.Total, ideal.Total)
	}
	if FormatFigure8(results) == "" {
		t.Fatal("format")
	}
}

func TestFigure9Shapes(t *testing.T) {
	zoo := RunFigure9Zoo(200_000, 40)
	if len(zoo.Rows) != 40 {
		t.Fatalf("rows %d", len(zoo.Rows))
	}
	s1 := zoo.CDF(func(r Figure9Row) int { return r.Strategy1 })
	no := zoo.CDF(func(r Figure9Row) int { return r.NoColoring })
	if s1[len(s1)-1] > 12 {
		t.Fatalf("strategy 1 needs %d values; paper: ≤9 for the Zoo", s1[len(s1)-1])
	}
	if no[len(no)-1] <= s1[len(s1)-1] {
		t.Fatal("coloring should beat the identity baseline")
	}
	for _, row := range zoo.Rows {
		if row.Strategy2 < row.Strategy1 {
			t.Fatalf("%s: strategy 2 (%d) cannot beat strategy 1 (%d)", row.Name, row.Strategy2, row.Strategy1)
		}
	}
	if FormatFigure9(zoo) == "" {
		t.Fatal("format")
	}
}

func TestFigure9RocketfuelSmall(t *testing.T) {
	rf := RunFigure9Rocketfuel(50_000, 2)
	if len(rf.Rows) != 2 {
		t.Fatal("rows")
	}
	for _, row := range rf.Rows {
		if row.Strategy1 > 10 {
			t.Fatalf("%s: strategy 1 = %d, paper: ≤8 for Rocketfuel", row.Name, row.Strategy1)
		}
	}
}

func TestHarnessHelpers(t *testing.T) {
	d := Durations([]time.Duration{3, 1, 2})
	if d[0] != 1 || d[2] != 3 {
		t.Fatal("sort")
	}
	if Percentile(d, 0) != 1 || Percentile(d, 1) != 3 {
		t.Fatal("percentile")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestFormatFigure4Repeatable: a result renders to the same text on every
// call, its series sorted by label.
func TestFormatFigure4Repeatable(t *testing.T) {
	r := Figure4Result{Series: map[string][]time.Duration{}}
	for i, label := range []string{"rule x1", "link", "rules 10 of 20", "rules 1 of 5", "b", "a"} {
		r.Series[label] = []time.Duration{time.Duration(i+1) * time.Millisecond}
	}
	r.Series["none"] = nil
	want := FormatFigure4(r)
	for i := 0; i < 20; i++ {
		if got := FormatFigure4(r); got != want {
			t.Fatalf("render %d differs from the first:\n%s\nwant:\n%s", i+1, got, want)
		}
	}
	if a, b := strings.Index(want, "  a "), strings.Index(want, "  b "); a < 0 || b < a {
		t.Fatalf("series not sorted by label:\n%s", want)
	}
}
