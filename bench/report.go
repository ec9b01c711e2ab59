package main

// From a monitor's report to metrics: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, the correctness
// check, and the traced-versus-untraced parity check.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// latencies returns the workload's primary latency samples in ms: round
// time on the sweep workloads, request-to-reply on rule_ops, fault due
// time to alert on fault_detect (detected faults only).
func latencies(res *runResult) []float64 {
	var xs []float64
	switch res.Workload {
	case "rule_ops":
		for _, o := range res.Ops {
			xs = append(xs, o.Ms)
		}
	case "fault_detect":
		for _, f := range res.Faults {
			if f.DetectMs >= 0 {
				xs = append(xs, f.DetectMs)
			}
		}
	default:
		for _, r := range res.Rounds {
			xs = append(xs, r.Ms)
		}
	}
	return xs
}

// tailOf is the percentile latency_ms_tail reports on a workload: the
// highest with at least 10 samples beyond it at the workload's sample
// count — p99 of ~5000 rule ops, p90 of ~120 faults. A sweep window
// holds 6 to 17 rounds, too few for any tail; their p90 is the slowest
// or second slowest round.
func tailOf(workload string) float64 {
	if workload == "rule_ops" {
		return 99
	}
	return 90
}

// judgement is a run's failure count and correctness verdict, with the
// reasons for any incorrect output.
type judgement struct {
	attempted, failed int
	known             int // failures of the documented baseline class
	problems          []string
}

// judge counts failures per the workload's definition and checks that
// every failure is of the documented baseline class: a probe whose
// header the wire cannot carry (ROADMAP 1(d)). Anything else is an
// incorrect output.
func judge(res *runResult) judgement {
	var j judgement
	switch res.Workload {
	case "rule_ops":
		j.attempted = len(res.Ops)
		for _, o := range res.Ops {
			want := "confirmed"
			if o.Op == "delete" {
				want = "absent"
			}
			if o.Status == 200 && o.Verdict == want {
				continue
			}
			j.failed++
			if o.Status == 200 && o.WireUnsafe {
				j.known++
			} else {
				j.problems = append(j.problems, fmt.Sprintf("%s of rule %d on switch %d: status %d verdict %q", o.Op, o.Rule, o.Switch, o.Status, o.Verdict))
			}
		}
	case "fault_detect":
		j.attempted = len(res.Faults)
		faulted := make(map[[2]uint64]bool)
		for _, f := range res.Faults {
			faulted[[2]uint64{uint64(f.Switch), f.Rule}] = true
			if f.DetectMs < 0 {
				j.failed++
				j.problems = append(j.problems, fmt.Sprintf("fault on switch %d rule %d undetected", f.Switch, f.Rule))
			}
		}
		for _, a := range res.Alerts {
			if !a.Setup && !faulted[[2]uint64{uint64(a.Switch), a.Rule}] {
				j.failed++
				j.problems = append(j.problems, fmt.Sprintf("%s on unfaulted switch %d rule %d", a.Type, a.Switch, a.Rule))
			}
		}
	default:
		j.attempted = res.Monitored
		j.failed = res.Failing
		j.known = res.FailingWire
		if res.Failing > res.FailingWire {
			j.problems = append(j.problems, fmt.Sprintf("%d rules failing on a healthy fleet with wire-safe probes", res.Failing-res.FailingWire))
		}
		for _, a := range res.Alerts {
			if a.Type != "rule_failing" {
				j.problems = append(j.problems, fmt.Sprintf("%s on switch %d rule %d on a healthy fleet", a.Type, a.Switch, a.Rule))
			}
		}
	}
	if len(latencies(res)) == 0 {
		j.problems = append(j.problems, "no samples in the measured window")
	}
	return j
}

// endToEnd prints the untraced run's metrics and returns its result line.
func endToEnd(w io.Writer, res *runResult, setups []float64) resultLine {
	j := judge(res)
	lat := latencies(res)
	ops := float64(res.RulesJudged)
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_ms_p50":  {percentile(lat, 50), "ms"},
		"latency_ms_tail": {percentile(lat, tailOf(res.Workload)), "ms"},
		"ops_per_s":       {ops / res.WindowS, "1/s"},
		"alloc_kb_per_op": {float64(res.AllocBytes) / 1024 / ops, "KiB"},
		"peak_rss_mb":     {float64(res.PeakRSSKB) / 1024, "MiB"},
	}
	fmt.Fprintf(w, "%s seed %d: %d samples in %.1f s, %d attempted, %d failed (%d of the known wire-unsafe-probe class), host steal %.1f%%\n",
		res.Workload, res.Seed, len(lat), res.WindowS, j.attempted, j.failed, j.known, 100*res.StealFrac)
	for _, p := range j.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	if p := tailPercentile(len(lat)); p > 0 {
		fmt.Fprintf(w, "  latency: the sample supports p%v = %.4f ms (n=%d)\n", p, percentile(lat, p), len(lat))
	}
	if len(res.Faults) > 0 {
		lag := 0.0
		for _, f := range res.Faults {
			lag = max(lag, f.LagMs)
		}
		fmt.Fprintf(w, "  injector: %d faults, largest lateness %.3f ms\n", len(res.Faults), lag)
	}
	printMetrics(w, m)
	return resultLine{Correct: len(j.problems) == 0, Attempted: j.attempted, Failed: j.failed, Metrics: m}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// perLayer prints the traced run's layer metrics and returns the result
// line. Failures and the process-wide runtime metrics come from the
// untraced run, which the relays and decorators do not load.
func perLayer(w io.Writer, plain, traced *runResult) resultLine {
	j := judge(plain)
	jt := judge(traced)
	m := make(map[string]metric, len(layerNames))
	for k, v := range traced.Layers {
		m[k] = metric{v, layerUnit(k)}
	}
	base, tr := percentile(latencies(plain), 50), percentile(latencies(traced), 50)
	m["trace_overhead_frac"] = metric{(tr - base) / base, layerUnit("trace_overhead_frac")}
	m["runtime.gc_cpu_frac"] = metric{plain.GCFrac, layerUnit("runtime.gc_cpu_frac")}
	m["runtime.cpu_ms_per_op"] = metric{plain.CPUms / float64(plain.RulesJudged), layerUnit("runtime.cpu_ms_per_op")}
	fmt.Fprintf(w, "%s seed %d traced: %d attempted, %d failed; untraced %d attempted, %d failed\n",
		traced.Workload, traced.Seed, jt.attempted, jt.failed, j.attempted, j.failed)
	for _, p := range append(j.problems, jt.problems...) {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	if s := layerSummary(traced.Layers); s != "" {
		fmt.Fprintf(w, "  round layers, largest first: %s\n", s)
	}
	printMetrics(w, m)
	return resultLine{Correct: len(j.problems)+len(jt.problems) == 0, Attempted: j.attempted, Failed: j.failed, Metrics: m}
}

// parity checks that the traced run saw what the untraced one did: the
// same alert stream (type, switch, rule, round) over the rounds both ran,
// and the same failure counts over the ops both ran. On fault_detect,
// where rounds are wall-clock paced, the alerts compare as the set of
// (type, switch, rule) rule_failing alerts.
func parity(a, b *runResult) error {
	switch a.Workload {
	case "rule_ops":
		n := min(len(a.Ops), len(b.Ops))
		for i := 0; i < n; i++ {
			x, y := a.Ops[i], b.Ops[i]
			if x.Op != y.Op || x.Rule != y.Rule || x.Status != y.Status || x.Verdict != y.Verdict {
				return fmt.Errorf("op %d: untraced %s rule %d -> %d %q, traced %s rule %d -> %d %q",
					i, x.Op, x.Rule, x.Status, x.Verdict, y.Op, y.Rule, y.Status, y.Verdict)
			}
		}
		return nil
	case "fault_detect":
		ka, kb := failingSet(a), failingSet(b)
		if fmt.Sprint(ka) != fmt.Sprint(kb) {
			return fmt.Errorf("rule_failing alerts differ: untraced %d, traced %d", len(ka), len(kb))
		}
		if ja, jb := judge(a), judge(b); ja.failed != jb.failed {
			return fmt.Errorf("failures: untraced %d, traced %d", ja.failed, jb.failed)
		}
		return nil
	}
	rounds := uint64(min(len(a.Rounds), len(b.Rounds))) + 1 // + the set-up round
	sa, sb := alertStream(a, rounds), alertStream(b, rounds)
	if len(sa) != len(sb) {
		return fmt.Errorf("%d alerts untraced, %d traced in the first %d rounds", len(sa), len(sb), rounds)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return fmt.Errorf("alert %d: untraced %s, traced %s", i, sa[i], sb[i])
		}
	}
	if a.Failing != b.Failing {
		return fmt.Errorf("failing rules: untraced %d, traced %d", a.Failing, b.Failing)
	}
	return nil
}

func alertStream(res *runResult, rounds uint64) []string {
	var out []string
	for _, a := range res.Alerts {
		if a.Round <= rounds {
			out = append(out, fmt.Sprintf("%s/%d/%d/%d", a.Type, a.Switch, a.Rule, a.Round))
		}
	}
	return out
}

func failingSet(res *runResult) []string {
	var out []string
	for _, a := range res.Alerts {
		if a.Type == "rule_failing" {
			out = append(out, fmt.Sprintf("%d/%d", a.Switch, a.Rule))
		}
	}
	sort.Strings(out)
	return out
}

// storedResult is one line of a result file (see -out and -compare).
type storedResult struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Correct  bool              `json:"correct"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
}

func appendResult(path, workload string, seed int64, trace bool, line resultLine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(storedResult{Workload: workload, Seed: seed, Trace: trace, Correct: line.Correct, Failed: line.Failed, Metrics: line.Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
