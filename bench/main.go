// Command bench is the end-to-end benchmark of the monocle monitor: four
// workloads over a live-wire rig or simulated data planes, end-to-end
// metrics from untraced runs, per-layer metrics from a traced run. See
// README.md.
//
//	bench --workload steady_wire --seed 1 --seconds 10 --trace 0
//	bench -seed 1                          # all four workloads
//	bench -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// workloads in the order BENCHMARK.json lists them.
var workloads = []string{"steady_wire", "churn_cpu", "rule_ops", "fault_detect"}

func main() {
	workload := flag.String("workload", "", "workload to run (empty: all four)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1: run untraced and traced, check parity, report per-layer metrics")
	out := flag.String("out", ".bench_build/results.jsonl", "file each run's result line is appended to (empty: none)")
	compare := flag.Bool("compare", false, "compare two result files: -compare parent.jsonl change.jsonl")
	role := flag.String("role", "", "internal: rig or monitor")
	config := flag.String("config", "", "internal: the monitor's JSON config")
	switches := flag.Int("switches", 0, "internal: the rig's monitored switch count")
	flag.Parse()

	var err error
	switch {
	case *role == "rig":
		err = runRig(*switches)
	case *role == "monitor":
		var cfg monitorConfig
		if err = json.Unmarshal([]byte(*config), &cfg); err == nil {
			err = runMonitor(cfg, os.Stdout)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else {
			err = runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		}
	default:
		err = runDriver(driverConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
