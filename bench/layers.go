package main

// Per-layer metrics of a traced run, computed from the spans the seam
// decorators recorded and the wire events the relays saw; the runtime.*
// and trace_overhead_frac metrics come from comparing it with the
// untraced run (see perLayer). Every metric is reported on every
// workload; it reads 0 where its layer does no work (no wire on
// churn_cpu, no rounds on rule_ops, no alerts on the healthy sweeps).

import (
	"math"
	"sort"
	"strings"
)

// layerNames lists the per-layer metrics with their units.
var layerNames = []struct{ name, unit string }{
	{"fleet.generate_ms_p50", "ms"},
	{"fleet.generate_us_per_rule", "us"},
	{"fleet.cold_generate_us_per_rule", "us"},
	{"diff.fold_ms_p50", "ms"},
	{"backend.observe_ms_per_round", "ms"},
	{"backend.observe_calls_per_round", "count"},
	{"backend.probes_per_call", "count"},
	{"backend.observe_concurrency", "count"},
	{"backend.deadline_frac", "frac"},
	{"backend.probe_rtt_ms_p50", "ms"},
	{"backend.probe_rtt_ms_p99", "ms"},
	{"backend.ruleop_confirm_ms_p50", "ms"},
	{"backend.ruleop_confirm_ms_p99", "ms"},
	{"openflow.packetouts_per_rule", "count"},
	{"openflow.packetouts_per_op", "count"},
	{"openflow.ctrl_kb_per_round", "KiB"},
	{"store.ms_per_round", "ms"},
	{"store.calls_per_round", "count"},
	{"store.save_rules_ms_p50", "ms"},
	{"sink.deliver_ms_per_round", "ms"},
	{"http.handler_ms_p50", "ms"},
	{"http.overhead_ms_p50", "ms"},
	{"service.ruleop_apply_ms_p50", "ms"},
	{"service.ruleop_gen_ms_p50", "ms"},
	{"service.detect_to_probe_s_p50", "s"},
	{"service.detect_after_probe_s_p50", "s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"trace_overhead_frac", "frac"},
}

func layerUnit(name string) string {
	for _, l := range layerNames {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

const msNS = 1e6

// traceView indexes one traced run's spans and wire events.
type traceView struct {
	spans    map[string][]span // by layer, sorted by start
	wire     []wireEvent       // in arrival order
	out      map[[2]uint64][]wireEvent
	outBySeq map[[2]uint64]int64 // (origin, seq) -> PacketOut time
	in       []wireEvent
	flowmods map[[2]uint64][]int64 // (switch, cookie) -> FlowMod times
	win0     int64
	win1     int64
}

func newTraceView(spans []span, wire []wireEvent, win0, win1 int64) *traceView {
	sort.SliceStable(wire, func(i, j int) bool { return wire[i].T < wire[j].T })
	v := &traceView{spans: make(map[string][]span), wire: wire, out: make(map[[2]uint64][]wireEvent),
		outBySeq: make(map[[2]uint64]int64), flowmods: make(map[[2]uint64][]int64), win0: win0, win1: win1}
	for _, s := range spans {
		v.spans[s.Layer] = append(v.spans[s.Layer], s)
	}
	for _, ss := range v.spans {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	for _, e := range wire {
		switch e.Kind {
		case wirePacketOut:
			k := [2]uint64{uint64(e.Origin), e.Rule}
			v.out[k] = append(v.out[k], e)
			v.outBySeq[[2]uint64{uint64(e.Origin), e.Seq}] = e.T
		case wirePacketIn:
			v.in = append(v.in, e)
		case wireFlowMod:
			k := [2]uint64{uint64(e.Conn), e.Rule}
			v.flowmods[k] = append(v.flowmods[k], e.T)
		}
	}
	return v
}

// inWindow returns the layer's spans that start inside the window.
func (v *traceView) inWindow(layer string) []span {
	var out []span
	for _, s := range v.spans[layer] {
		if s.Start >= v.win0 && s.Start <= v.win1 {
			out = append(out, s)
		}
	}
	return out
}

// within returns the layer's spans starting in [a, b].
func (v *traceView) within(layer string, a, b int64) []span {
	var out []span
	for _, s := range v.spans[layer] {
		if s.Start >= a && s.Start <= b {
			out = append(out, s)
		}
	}
	return out
}

// wireBytes sums the control-channel bytes of the FlowMods, PacketOuts
// and PacketIns seen in [a, b].
func (v *traceView) wireBytes(a, b int64) int {
	lo := sort.Search(len(v.wire), func(i int) bool { return v.wire[i].T >= a })
	n := 0
	for _, e := range v.wire[lo:] {
		if e.T > b {
			break
		}
		n += e.Bytes
	}
	return n
}

// injections summarises the PacketOuts switch sw sent in [a, b]: how
// many, and for each probed rule its first and last injection time.
func (v *traceView) injections(sw uint32, a, b int64) (int, map[uint64][2]int64) {
	n, inj := 0, make(map[uint64][2]int64)
	lo := sort.Search(len(v.wire), func(i int) bool { return v.wire[i].T >= a })
	for _, e := range v.wire[lo:] {
		if e.T > b {
			break
		}
		if e.Kind != wirePacketOut || e.Conn != sw {
			continue
		}
		n++
		t, ok := inj[e.Rule]
		if !ok {
			t[0] = e.T
		}
		t[1] = e.T
		inj[e.Rule] = t
	}
	return n, inj
}

// firstOut returns the first PacketOut probing (origin, rule) at or after
// t, or -1.
func (v *traceView) firstOut(origin uint32, rule uint64, t int64) int64 {
	for _, e := range v.out[[2]uint64{uint64(origin), rule}] {
		if e.T >= t {
			return e.T
		}
	}
	return -1
}

func durMs(ss []span) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.End-s.Start) / msNS
	}
	return xs
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// covered returns how much of [a, b] the spans cover (ns).
func covered(ss []span, a, b int64) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, s := range ss {
		lo, hi := max(s.Start, a), min(s.End, b)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, end int64 = 0, math.MinInt64
	for _, x := range ivs {
		if x.s > end {
			total += x.e - x.s
			end = x.e
		} else if x.e > end {
			total += x.e - end
			end = x.e
		}
	}
	return total
}

// layerMetrics computes every per-layer metric of a finished traced run.
func layerMetrics(w *monitorRun) map[string]float64 {
	spans, wire := w.tr.snapshot()
	v := newTraceView(spans, wire, w.trWin0, w.trWin1)
	m := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		m[l.name] = 0
	}
	rules := float64(w.res.Monitored)

	// Rounds: [start, end] pairs; the first is the cold set-up round.
	rounds, cold := w.roundSpans, w.setupRound
	if w.cfg.Workload == "fault_detect" {
		rounds, cold = runRounds(v, w.runStart)
	}
	if cold.End > 0 {
		obs := v.within(layerObserve, cold.Start, cold.End)
		first := cold.End
		if len(obs) > 0 {
			first = obs[0].Start
		}
		m["fleet.cold_generate_us_per_rule"] = float64(first-cold.Start) / 1e3 / rules
	}
	var gen, fold, obsMs, obsCalls, storeMs, storeCalls, sinkMs []float64
	var probes, calls float64
	var outs, bytes int
	for _, r := range rounds {
		bytes += v.wireBytes(r.Start, r.End)
		obs := v.within(layerObserve, r.Start, r.End)
		first := r.End
		if len(obs) > 0 {
			first = obs[0].Start
		}
		st := append(v.within(layerSaveRound, r.Start, r.End), v.within(layerSaveRules, first, r.End)...)
		sk := v.within(layerDeliver, r.Start, r.End)
		gen = append(gen, float64(first-r.Start)/msNS)
		busy := covered(append(append(append([]span(nil), obs...), st...), sk...), first, r.End)
		fold = append(fold, float64(r.End-first-busy)/msNS)
		obsMs = append(obsMs, sum(durMs(obs)))
		obsCalls = append(obsCalls, float64(len(obs)))
		storeMs = append(storeMs, sum(durMs(st)))
		storeCalls = append(storeCalls, float64(len(st)))
		sinkMs = append(sinkMs, sum(durMs(sk)))
		for _, s := range obs {
			probes += float64(s.N)
			calls++
			n, _ := v.injections(s.Switch, s.Start, s.End)
			outs += n
		}
	}
	if len(rounds) > 0 {
		m["fleet.generate_ms_p50"] = percentile(gen, 50)
		m["fleet.generate_us_per_rule"] = percentile(gen, 50) * 1e3 / rules
		m["diff.fold_ms_p50"] = percentile(fold, 50)
		m["backend.observe_ms_per_round"] = mean(obsMs)
		m["backend.observe_calls_per_round"] = mean(obsCalls)
		m["store.ms_per_round"] = mean(storeMs)
		m["store.calls_per_round"] = mean(storeCalls)
		m["sink.deliver_ms_per_round"] = mean(sinkMs)
		m["openflow.packetouts_per_rule"] = float64(outs) / (rules * float64(len(rounds)))
		m["openflow.ctrl_kb_per_round"] = float64(bytes) / 1024 / float64(len(rounds))
	}
	if calls > 0 {
		m["backend.probes_per_call"] = probes / calls
	}
	obs := v.inWindow(layerObserve)
	if u := covered(obs, v.win0, v.win1); u > 0 {
		m["backend.observe_concurrency"] = sum(durMs(obs)) * msNS / float64(u)
	}
	m["backend.deadline_frac"] = deadlineFrac(v, obs)

	var rtt []float64
	for _, e := range v.in {
		if e.T < v.win0 || e.T > v.win1 {
			continue
		}
		if t, ok := v.outBySeq[[2]uint64{uint64(e.Origin), e.Seq}]; ok {
			rtt = append(rtt, float64(e.T-t)/msNS)
		}
	}
	m["backend.probe_rtt_ms_p50"] = percentile(rtt, 50)
	m["backend.probe_rtt_ms_p99"] = percentile(rtt, 99)
	one := durMs(v.inWindow(layerObserveOne))
	m["backend.ruleop_confirm_ms_p50"] = percentile(one, 50)
	m["backend.ruleop_confirm_ms_p99"] = percentile(one, 99)
	m["store.save_rules_ms_p50"] = percentile(durMs(v.inWindow(layerSaveRules)), 50)

	if w.cfg.Workload == "rule_ops" {
		ruleOpLayers(w, v, m)
	}
	if w.cfg.Workload == "fault_detect" {
		var toProbe, afterProbe []float64
		for i, f := range w.res.Faults {
			if f.DetectMs < 0 {
				continue
			}
			due := w.faultDue[i]
			if t := v.firstOut(f.Switch, f.Rule, due); t >= 0 {
				toProbe = append(toProbe, float64(t-due)/1e9)
				afterProbe = append(afterProbe, f.DetectMs/1e3-float64(t-due)/1e9)
			}
		}
		m["service.detect_to_probe_s_p50"] = percentile(toProbe, 50)
		m["service.detect_after_probe_s_p50"] = percentile(afterProbe, 50)
	}
	return m
}

// runRounds recovers Service.Run's rounds. Each ends with its WAL
// SaveRound and the sink delivery right after it. The first starts at
// Run's start; Run starts each later one steadyInterval after the
// previous ended (rounds overrun the interval, so Run rebases), and
// never after the round's first observe call.
func runRounds(v *traceView, runStart int64) (measured []span, first span) {
	saves := v.spans[layerSaveRound]
	prev, start := runStart, runStart
	for i, s := range saves {
		end := s.End
		next := int64(math.MaxInt64)
		if i+1 < len(saves) {
			next = saves[i+1].Start
		}
		for _, d := range v.within(layerDeliver, s.End, next) {
			end = max(end, d.End)
		}
		if obs := v.within(layerObserve, prev, end); len(obs) > 0 {
			start = min(start, obs[0].Start)
		}
		r := span{Layer: layerRound, Start: start, End: end}
		if i == 0 {
			first = r
		} else if r.Start >= v.win0 && r.End <= v.win1 {
			measured = append(measured, r)
		}
		prev, start = end, end+int64(steadyInterval)
	}
	return measured, first
}

// deadlineFrac is the share of observed probes whose observation ran to
// the deadline instead of settling on a catch: their re-injections span
// at least 90% of the observe timeout.
func deadlineFrac(v *traceView, obs []span) float64 {
	var probes, deadline int
	for _, s := range obs {
		_, inj := v.injections(s.Switch, s.Start, s.End)
		probes += len(inj)
		for _, t := range inj {
			if float64(t[1]-t[0]) >= 0.9*float64(detectionTimeout) {
				deadline++
			}
		}
	}
	if probes == 0 {
		return 0
	}
	return float64(deadline) / float64(probes)
}

// ruleOpLayers splits each measured rule op: HTTP overhead outside the
// handler, handler entry to the op's FlowMod, and FlowMod to the first
// PacketOut probing the rule.
func ruleOpLayers(w *monitorRun, v *traceView, m map[string]float64) {
	hs := v.inWindow(layerHandler)
	var handler, overhead, apply, gen []float64
	for i, op := range w.res.Ops {
		if i >= len(hs) {
			break
		}
		h := hs[i]
		d := float64(h.End-h.Start) / msNS
		handler = append(handler, d)
		overhead = append(overhead, op.Ms-d)
		fm := int64(-1)
		for _, t := range v.flowmods[[2]uint64{uint64(op.Switch), op.Rule}] {
			if t >= h.Start && t <= h.End {
				fm = t
				break
			}
		}
		if fm < 0 {
			continue
		}
		apply = append(apply, float64(fm-h.Start)/msNS)
		if t := v.firstOut(op.Switch, op.Rule, fm); t >= 0 && t <= h.End {
			gen = append(gen, float64(t-fm)/msNS)
		}
	}
	m["http.handler_ms_p50"] = percentile(handler, 50)
	m["http.overhead_ms_p50"] = percentile(overhead, 50)
	m["service.ruleop_apply_ms_p50"] = percentile(apply, 50)
	m["service.ruleop_gen_ms_p50"] = percentile(gen, 50)
	outs := 0
	seen := make(map[[2]uint64]bool)
	for _, op := range w.res.Ops {
		k := [2]uint64{uint64(op.Switch), op.Rule}
		if !seen[k] {
			seen[k] = true
			outs += len(v.out[k])
		}
	}
	if len(w.res.Ops) > 0 {
		m["openflow.packetouts_per_op"] = float64(outs) / float64(len(w.res.Ops))
	}
}

// layerSummary orders the round layers by their time per round, for the
// report's "dominant layer" line.
func layerSummary(m map[string]float64) string {
	parts := []string{}
	for _, k := range []string{"fleet.generate_ms_p50", "backend.observe_ms_per_round", "diff.fold_ms_p50", "store.ms_per_round", "sink.deliver_ms_per_round"} {
		if m[k] > 0 {
			parts = append(parts, k)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return m[parts[i]] > m[parts[j]] })
	return strings.Join(parts, " > ")
}
