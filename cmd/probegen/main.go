// Command probegen generates data plane probes offline: it loads a flow
// table description from JSON, runs the Monocle probe generator for every
// rule (or one selected rule), and prints the probe header, the expected
// outcomes, and solver statistics. With -json it emits one ResultRecord
// object per line, the stream format the fleet sweep service and scripts
// consume.
//
// JSON input format: an array of rules in the RuleSpec form that
// POST /switches/{id}/rules, the state-dir WAL and session traces use.
//
//	[
//	  {"id":1, "priority":10,
//	   "match": {"nw_src":"10.0.0.0/8", "nw_proto":"6", "tp_dst":"80"},
//	   "actions":[{"output":2},{"set":{"field":"nw_tos","value":46}}]},
//	  {"id":2, "priority":5, "match": {"nw_dst":"0xa000001&0xff0000ff"},
//	   "actions":[{"ecmp":[1,2]}]}
//	]
//
// Field names follow OpenFlow 1.0 (in_port, dl_src, dl_dst, dl_type,
// dl_vlan, dl_vlan_pcp, nw_src, nw_dst, nw_proto, nw_tos, tp_src, tp_dst).
// A value is decimal, 0x hex or a dotted quad, and may carry a /prefixlen
// or an &mask; a value wider than its field is an error. An empty action
// list is a drop.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"monocle"
)

// load decodes a JSON array of RuleSpecs into validated rules; an error
// names the index of the rule it is about.
func load(data []byte) ([]*monocle.Rule, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parsing rules: %w", err)
	}
	rules := make([]*monocle.Rule, len(raw))
	for i, msg := range raw {
		var rs monocle.RuleSpec
		if err := json.Unmarshal(msg, &rs); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		r, err := rs.Rule()
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		rules[i] = r
	}
	return rules, nil
}

// tableMiss parses the -miss flag.
func tableMiss(s string) (monocle.TableMiss, error) {
	switch s {
	case "drop":
		return monocle.MissDrop, nil
	case "controller":
		return monocle.MissController, nil
	}
	return 0, fmt.Errorf("-miss %q: want drop or controller", s)
}

func main() {
	var (
		in       = flag.String("in", "-", "JSON rule file ('-' = stdin)")
		ruleID   = flag.Uint64("rule", 0, "generate for this rule id only (0 = all)")
		tag      = flag.Uint64("tag", 1, "probe tag value (Collect constraint on dl_vlan)")
		miss     = flag.String("miss", "drop", "table-miss behaviour: drop|controller")
		stats    = flag.Bool("stats", false, "sweep with the incremental clustered engine and report per-worker solver statistics")
		workers  = flag.Int("workers", 0, "worker count for -stats/-json sweeps (0 = all CPUs)")
		jsonMode = flag.Bool("json", false, "emit one ResultRecord JSON object per line (stream format of the fleet sweep service)")
	)
	flag.Parse()

	var data []byte
	var err error
	if *in == "-" {
		data, err = readAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		fatal(err)
	}
	rules, err := load(data)
	if err != nil {
		fatal(err)
	}
	missMode, err := tableMiss(*miss)
	if err != nil {
		fatal(err)
	}
	v, err := monocle.NewVerifier(
		monocle.WithProbeTag(*tag),
		monocle.WithWorkers(*workers),
		monocle.WithTableMiss(missMode),
	)
	if err != nil {
		fatal(err)
	}
	if err := v.Install(rules...); err != nil {
		fatal(err)
	}

	switch {
	case *jsonMode:
		sweepJSON(v, *ruleID)
	case *stats:
		if *ruleID != 0 {
			fatal(errors.New("-stats sweeps the whole table; drop -rule"))
		}
		sweepWithStats(v)
	default:
		perRule(v, rules, *ruleID)
	}
}

// perRule is the classic human-readable mode: one generation per rule
// through the verifier's cached session, with wall times.
func perRule(v *monocle.Verifier, rules []*monocle.Rule, ruleID uint64) {
	found, unmon := 0, 0
	for _, r := range rules {
		if ruleID != 0 && r.ID != ruleID {
			continue
		}
		start := time.Now()
		p, err := v.ProbeFor(r.ID)
		el := time.Since(start)
		if errors.Is(err, monocle.ErrUnmonitorable) {
			unmon++
			fmt.Printf("rule %d: UNMONITORABLE (%v)\n", r.ID, el.Round(time.Microsecond))
			continue
		}
		if err != nil {
			fatal(fmt.Errorf("rule %d: %w", r.ID, err))
		}
		found++
		printProbe(r.ID, p)
		fmt.Printf("         time=%v\n", el.Round(time.Microsecond))
	}
	fmt.Printf("probes found: %d, unmonitorable: %d\n", found, unmon)
}

// sweepJSON emits one ResultRecord per line for the whole table (or just
// the selected rule), the stream format scripts and the fleet service
// parse.
func sweepJSON(v *monocle.Verifier, ruleID uint64) {
	enc := json.NewEncoder(os.Stdout)
	emit := func(res monocle.ProbeResult) {
		if res.Err != nil && !errors.Is(res.Err, monocle.ErrUnmonitorable) {
			fatal(fmt.Errorf("rule %d: %w", res.Rule.ID, res.Err))
		}
		if err := enc.Encode(monocle.NewResultRecord(0, 0, res)); err != nil {
			fatal(err)
		}
	}
	if ruleID != 0 {
		// Single rule: one generation, not a whole-table sweep.
		var rule *monocle.Rule
		for _, r := range v.Rules() {
			if r.ID == ruleID {
				rule = r
				break
			}
		}
		if rule == nil {
			fatal(fmt.Errorf("rule %d: %w", ruleID, monocle.ErrNotFound))
		}
		p, err := v.ProbeFor(ruleID)
		emit(monocle.ProbeResult{Rule: rule, Probe: p, Err: err})
		return
	}
	for _, res := range v.Sweep(context.Background()) {
		emit(res)
	}
}

// sweepWithStats runs the whole table through the incremental clustered
// batch engine and reports what each worker's solver did.
func sweepWithStats(v *monocle.Verifier) {
	start := time.Now()
	results, ws := v.SweepStats(context.Background())
	wall := time.Since(start)
	found, unmon := 0, 0
	for _, res := range results {
		if errors.Is(res.Err, monocle.ErrUnmonitorable) {
			unmon++
			fmt.Printf("rule %d: UNMONITORABLE\n", res.Rule.ID)
			continue
		}
		if res.Err != nil {
			fatal(fmt.Errorf("rule %d: %w", res.Rule.ID, res.Err))
		}
		found++
		printProbe(res.Rule.ID, res.Probe)
	}
	fmt.Printf("probes found: %d, unmonitorable: %d, wall=%v\n", found, unmon, wall.Round(time.Microsecond))
	fmt.Printf("%-8s %8s %10s %12s %14s %12s\n",
		"worker", "rules", "clusters", "decisions", "propagations", "conflicts")
	var tot monocle.WorkerStats
	for _, w := range ws {
		fmt.Printf("%-8d %8d %10d %12d %14d %12d\n",
			w.Worker, w.Rules, w.Clusters, w.Decisions, w.Propagations, w.Conflicts)
		tot.Rules += w.Rules
		tot.Clusters += w.Clusters
		tot.Decisions += w.Decisions
		tot.Propagations += w.Propagations
		tot.Conflicts += w.Conflicts
	}
	fmt.Printf("%-8s %8d %10d %12d %14d %12d\n",
		"total", tot.Rules, tot.Clusters, tot.Decisions, tot.Propagations, tot.Conflicts)
}

func printProbe(id uint64, p *monocle.Probe) {
	fmt.Printf("rule %d: probe %s\n", id, p.Header)
	fmt.Printf("         present: %s\n", describeOutcome(p.Present))
	fmt.Printf("         absent:  %s\n", describeOutcome(p.Absent))
	fmt.Printf("         vars=%d clauses=%d overlapping=%d\n",
		p.Stats.Vars, p.Stats.Clauses, p.Stats.Overlapping)
}

func describeOutcome(o monocle.Outcome) string {
	if o.Drop {
		return "dropped (negative probing)"
	}
	s := ""
	for i, e := range o.Emissions {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("port %d", e.Port)
	}
	if o.ECMP {
		s = "one of: " + s
	}
	return s
}

func readAll(f *os.File) ([]byte, error) { return io.ReadAll(f) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probegen:", err)
	os.Exit(1)
}
