// Consistentupdate reruns the paper's §8.1.2 end-to-end experiment
// (Figure 5): 300 flows are rerouted from S1→S2 to S1→S3→S2 where S3
// acknowledges rules before they reach its data plane. With plain
// barriers the update blackholes thousands of packets; with Monocle's
// data plane confirmations it drops none, at a comparable update time.
package main

import (
	"flag"
	"fmt"

	"monocle/internal/experiments"
)

func main() {
	flows := flag.Int("flows", 300, "number of flows to reroute")
	flag.Parse()

	fmt.Printf("rerouting %d flows (300 pkt/s each) via an inconsistent switch\n\n", *flows)
	results := experiments.DefaultFigure5(*flows)
	fmt.Print(experiments.FormatFigure5(results))
	fmt.Println("\nper-flow detail (first 5 flows, HP/Monocle run):")
	for _, r := range results {
		if r.Mode != "Monocle" || r.Switch != "HP 5406zl" {
			continue
		}
		for _, f := range r.Flows[:5] {
			fmt.Printf("  flow %3d: upstream updated %8v, dataplane ready %8v, dropped %.0f\n",
				f.ID, f.UpstreamUpdated, f.DataplaneReady, f.DroppedPackets)
		}
	}
}
