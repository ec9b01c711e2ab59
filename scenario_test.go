package monocle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// scenarioWorkerBudgets are the solver parallelism levels every scenario
// must behave identically under.
var scenarioWorkerBudgets = []int{1, 2, 8}

// TestScenarioMatrix runs the full adversarial scenario fleet at every
// worker budget: each scenario asserts its exact declared alert sequence
// (Run errors on any false positive, miss, or misorder), and the
// marshaled alert streams must be byte-identical across budgets. With
// SCENARIO_TRACE_DIR set (the CI artifact directory), every switch
// session is recorded there, so a failing scenario leaves a replayable
// trace behind.
func TestScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix drives real TCP switches with wall-clock timeouts")
	}
	artifactRoot := os.Getenv("SCENARIO_TRACE_DIR")
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var canonical []byte
			for i, workers := range scenarioWorkerBudgets {
				traceDir := ""
				if artifactRoot != "" {
					traceDir = filepath.Join(artifactRoot, sc.Name, "workers-"+itoa(workers))
				} else {
					traceDir = filepath.Join(t.TempDir(), "workers-"+itoa(workers))
				}
				res, err := sc.Run(workers, traceDir)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				t.Logf("workers=%d: %d rounds, %d alerts", workers, res.Rounds, len(res.Alerts))
				if i == 0 {
					canonical = res.Stream
					continue
				}
				if !bytes.Equal(res.Stream, canonical) {
					t.Fatalf("workers=%d alert stream diverged from workers=%d:\n--- workers=%d ---\n%s--- workers=%d ---\n%s",
						workers, scenarioWorkerBudgets[0],
						scenarioWorkerBudgets[0], canonical, workers, res.Stream)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestScenariosDeclared pins the fleet's composition: the CI matrix job
// names these sub-tests, so renames must be deliberate.
func TestScenariosDeclared(t *testing.T) {
	want := []string{
		"churn_storm",
		"churn_divergence",
		"flap_midsweep",
		"backend_flapping",
		"confirm_window_drop",
		"slow_lossy",
		"ecmp_multicast",
		"priority_shadow",
		"policy_groups",
	}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("fleet has %d scenarios, want %d", len(got), len(want))
	}
	for i, sc := range got {
		if sc.Name != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, sc.Name, want[i])
		}
		if sc.Description == "" {
			t.Fatalf("scenario %q has no description", sc.Name)
		}
		if sc.run == nil {
			t.Fatalf("scenario %q has no body", sc.Name)
		}
	}
}

// TestChurnStormOnSim runs churn_storm with SimBackend switches. Its
// runChurn checks every op's verdict against the model — add and modify
// "confirmed", delete "absent" (Verdict is evidence-relative) — as the
// proxy runs in TestScenarioMatrix do, so Sim and Proxy must agree op
// for op on the same seeded plan.
func TestChurnStormOnSim(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Name != "churn_storm" {
			continue
		}
		if _, err := sc.runOn(true, 1, ""); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no churn_storm scenario")
}
