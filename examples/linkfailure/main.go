// Linkfailure reruns the paper's §8.1.1 steady-state experiment
// (Figure 4): a monitored switch holds 1000 L3 rules probed at 500/s;
// rules (or a whole 102-rule link) fail silently in the data plane and
// Monocle localizes them within seconds.
package main

import (
	"flag"
	"fmt"

	"monocle/internal/experiments"
)

func main() {
	reps := flag.Int("reps", 20, "repetitions per scenario (paper: 1000)")
	rules := flag.Int("rules", 1000, "rules in the monitored flow table")
	flag.Parse()

	fmt.Printf("monitoring %d rules at 500 probes/s; injecting failures (%d reps)\n\n", *rules, *reps)
	cfg := experiments.DefaultFigure4(*reps)
	cfg.Rules = *rules
	res := experiments.RunFigure4(cfg)
	fmt.Print(experiments.FormatFigure4(res))
}
