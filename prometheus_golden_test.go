package monocle_test

// Prometheus goldens: the exact text exposition of a Service's and a
// coordinator's GET /metrics, pinned byte for byte so a refactor of the
// renderer cannot silently rename, reorder or reformat a series. Only the
// values of *_us_per_rule samples are masked: they are wall-clock. After
// an intended change regenerate with
//
//	go test -run 'PrometheusGolden' -update-prom .

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"monocle"
)

var updateProm = flag.Bool("update-prom", false, "rewrite the Prometheus goldens under testdata/")

// goldenPolicy splits the two golden switches into two policy groups.
const goldenPolicy = "policy edge { select switch 1 }\npolicy core { select switch 2 }\n"

// driveGoldenFleet runs the golden deployment against a monocled or a
// coordinator: the two-group policy, switches 1 and 2 with one rule each,
// a healthy sweep, then a hardware-side rule loss on switch 1 and the
// sweep that raises its one rule_failing alert.
func driveGoldenFleet(t *testing.T, d *clusterDriver) {
	t.Helper()
	if resp, status := d.req(http.MethodPut, "/policy", []byte(goldenPolicy)); status != http.StatusOK {
		t.Fatalf("PUT /policy: %d: %s", status, resp)
	}
	for id := uint32(1); id <= 2; id++ {
		d.addSwitch(id)
		rs := testRule(id, 0)
		d.ruleOp(id, monocle.RuleOp{Op: "add", Rule: &rs})
	}
	if alerts := d.sweep(); len(alerts) != 0 {
		t.Fatalf("healthy sweep alerted: %+v", alerts)
	}
	d.ruleOp(1, monocle.RuleOp{Op: "delete", ID: 7, Dataplane: "actual"})
	if alerts := d.sweep(); len(alerts) != 1 || alerts[0].Type != monocle.AlertRuleFailing {
		t.Fatalf("want one rule_failing alert, got %+v", alerts)
	}
}

// scrapePrometheus fetches base/metrics as Prometheus text with the
// wall-clock *_us_per_rule sample values masked.
func scrapePrometheus(t *testing.T, base string) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if strings.HasSuffix(name, "_us_per_rule") {
			sample := line[:strings.LastIndexByte(line, ' ')]
			lines[i] = sample + " <masked>\n"
		}
	}
	return []byte(strings.Join(lines, ""))
}

func checkPromGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateProm {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-prom): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Prometheus text changed:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestServicePrometheusGolden(t *testing.T) {
	svc := monocle.NewService(monocle.WithWorkers(1), monocle.WithDebounce(1))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	driveGoldenFleet(t, &clusterDriver{t: t, base: ts.URL})
	checkPromGolden(t, "testdata/prometheus_service.golden", scrapePrometheus(t, ts.URL))
}

func TestClusterPrometheusGolden(t *testing.T) {
	url := startCluster(t, 2, 1)
	driveGoldenFleet(t, &clusterDriver{t: t, base: url})
	checkPromGolden(t, "testdata/prometheus_cluster.golden", scrapePrometheus(t, url))
}

// TestRequestBodyLimit: every JSON-body endpoint caps its request at
// 1 MiB. An oversized but otherwise valid registration is refused with
// 413 by a monocled and by a coordinator alike, and registers nothing.
func TestRequestBodyLimit(t *testing.T) {
	svc := monocle.NewService(monocle.WithWorkers(1))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for name, base := range map[string]string{"service": ts.URL, "cluster": startCluster(t, 2, 1)} {
		d := &clusterDriver{t: t, base: base}
		huge := monocle.SwitchSpec{ID: 1, Tags: []string{strings.Repeat("x", 2<<20)}}
		if resp := d.mustJSON(http.MethodPost, "/switches", huge, http.StatusRequestEntityTooLarge); !bytes.Contains(resp, []byte("error")) {
			t.Fatalf("%s: 413 without an error body: %s", name, resp)
		}
		if resp := d.mustJSON(http.MethodGet, "/switches", nil, http.StatusOK); string(bytes.TrimSpace(resp)) != "null" {
			t.Fatalf("%s: oversized registration left switches behind: %s", name, resp)
		}
		rs := testRule(1, 0)
		rs.Match["nw_dst"] = strings.Repeat("1", 2<<20)
		d.addSwitch(1)
		d.mustJSON(http.MethodPost, "/switches/1/rules", monocle.RuleOp{Op: "add", Rule: &rs}, http.StatusRequestEntityTooLarge)
	}
}
