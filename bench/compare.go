package main

// -compare: parent versus change over two result files, judged with the
// bounds in BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults reads the untraced runs of a result file, in file order.
func readResults(path string) ([]storedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []storedResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r storedResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per workload, one row per end-to-end metric with
// each side's quartiles and the verdict, then the workload's row: worse
// if any metric is worse, else unresolved if any is, else improved if
// any is, else unchanged.
func runCompare(w io.Writer, specPath, parentPath, changePath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	pick := func(rs []storedResult, workload, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if mv, ok := r.Metrics[name]; ok && r.Workload == workload {
				xs = append(xs, mv.Value)
			}
		}
		return xs
	}
	failures := func(rs []storedResult, workload string) (runs, failed int, incorrect int) {
		for _, r := range rs {
			if r.Workload == workload {
				runs++
				failed += r.Failed
				if !r.Correct {
					incorrect++
				}
			}
		}
		return
	}
	fmt.Fprintf(w, "%-14s %-16s %32s %32s %8s  %s\n", "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "change", "verdict")
	for _, wl := range spec.Workloads {
		counts := map[string]int{}
		for _, m := range spec.EndToEnd {
			p, c := pick(parent, wl.Name, m.Name), pick(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(p, c, m.Better == "lower", m.Bound)
			counts[v]++
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-14s %-16s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%%  %s\n",
				wl.Name, m.Name, pq1, pm, pq3, cq1, cm, cq3, 100*(cm-pm)/pm, v)
		}
		pr, pf, pi := failures(parent, wl.Name)
		cr, cf, ci := failures(change, wl.Name)
		if pr == 0 || cr == 0 {
			fmt.Fprintf(w, "%-14s %-16s no runs on one side\n", wl.Name, "WORKLOAD")
			continue
		}
		overall := verdictUnchanged
		switch {
		case counts[verdictWorse] > 0 || ci > pi:
			overall = verdictWorse
		case counts[verdictUnresolved] > 0:
			overall = verdictUnresolved
		case counts[verdictImproved] > 0 && cf <= pf:
			overall = verdictImproved
		}
		fmt.Fprintf(w, "%-14s %-16s runs %d vs %d, failed ops %d vs %d, incorrect runs %d vs %d  %s\n",
			wl.Name, "WORKLOAD", pr, cr, pf, cf, pi, ci, overall)
	}
	return nil
}
