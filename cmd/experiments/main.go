// Command experiments regenerates the paper's evaluation tables and
// figures (§8) on the simulated substrate and prints the same rows/series
// the paper reports.
//
// Usage:
//
//	experiments -all
//	experiments -fig 4 -reps 1000
//	experiments -table 2
//	experiments -fig 9 -zoo 261 -rocketfuel 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"monocle/internal/experiments"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		fig    = flag.Int("fig", 0, "figure number to run (4,5,6,7,8,9; 67 for the §8.3.1 scalars)")
		table  = flag.Int("table", 0, "table number to run (2)")
		reps   = flag.Int("reps", 100, "repetitions for Figure 4 (paper: 1000)")
		flows  = flag.Int("flows", 300, "flows for Figure 5 (paper: 300)")
		paths  = flag.Int("paths", 2000, "paths for Figure 8 (paper: 2000)")
		zoo    = flag.Int("zoo", 261, "Zoo-like topologies for Figure 9")
		rocket = flag.Int("rocketfuel", 10, "Rocketfuel-like topologies for Figure 9")
		budget = flag.Int64("budget", 2_000_000, "exact-coloring search budget per graph")
	)
	flag.Parse()

	ran := false
	run := func(n int) bool {
		if *all || *fig == n {
			ran = true
			return true
		}
		return false
	}

	if *all || *table == 2 {
		ran = true
		start := time.Now()
		rows := experiments.RunTable2(experiments.Table2Config{})
		fmt.Print(experiments.FormatTable2(rows))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))

		start = time.Now()
		sweep := experiments.RunTable2Sweep(0, 0)
		fmt.Print(experiments.FormatTable2Sweep(sweep))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if run(4) {
		start := time.Now()
		res := experiments.RunFigure4(experiments.DefaultFigure4(*reps))
		fmt.Print(experiments.FormatFigure4(res))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if run(5) {
		start := time.Now()
		res := experiments.DefaultFigure5(*flows)
		fmt.Print(experiments.FormatFigure5(res))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if run(6) {
		fmt.Print(experiments.FormatFigure6(experiments.RunFigure6()))
		fmt.Println()
	}
	if run(7) {
		fmt.Print(experiments.FormatFigure7(experiments.RunFigure7()))
		fmt.Println()
	}
	if *all || *fig == 67 {
		ran = true
		fmt.Print(experiments.FormatSwitchRates(experiments.RunSwitchRates()))
		fmt.Println()
	}
	if run(8) {
		start := time.Now()
		res := experiments.DefaultFigure8(*paths)
		fmt.Print(experiments.FormatFigure8(res))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if run(9) {
		start := time.Now()
		fmt.Print(experiments.FormatFigure9(experiments.RunFigure9Zoo(*budget, *zoo)))
		fmt.Print(experiments.FormatFigure9(experiments.RunFigure9Rocketfuel(*budget, *rocket)))
		fmt.Printf("  (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -fig N or -table 2")
		flag.Usage()
		os.Exit(2)
	}
}
