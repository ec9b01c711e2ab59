// Coloring demonstrates the §6 catching-rule planning: it generates a
// WAN-like topology, colors it for both monitoring strategies, and shows
// how few reserved header values (and catching rules per switch) Monocle
// needs compared to the one-id-per-switch baseline.
package main

import (
	"flag"
	"fmt"

	"monocle/internal/coloring"
	"monocle/internal/topo"
)

func main() {
	n := flag.Int("n", 120, "switches in the generated WAN topology")
	flag.Parse()

	tp := topo.Waxman(*n, 0.4, 0.15, 42)
	g := tp.Graph
	fmt.Printf("topology %s: %d switches, %d links, max degree %d\n\n",
		tp.Name, g.N, g.Edges(), g.MaxDegree())

	no := coloring.NoColoring(g)
	s1 := coloring.PlanStrategy1(g, 2_000_000)
	s2 := coloring.PlanStrategy2(g, 2_000_000)

	fmt.Printf("reserved probe-tag values needed:\n")
	fmt.Printf("  no coloring (one id per switch): %s\n", no)
	fmt.Printf("  strategy 1 (single field):       %s\n", s1)
	fmt.Printf("  strategy 2 (two fields):         %s\n", s2)

	fmt.Printf("\nwith strategy 1, every switch installs %d catching rules\n", s1.Values-1)
	fmt.Printf("(one per reserved value other than its own color)\n")

	if !coloring.Valid(g, s1.Colors) {
		panic("invalid strategy-1 coloring")
	}
	if !coloring.Valid(g.Square(), s2.Colors) {
		panic("invalid strategy-2 coloring")
	}
}
