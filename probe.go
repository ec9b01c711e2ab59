package monocle

// Probe-engine surface: the generated probe packets, their outcomes, the
// per-rule sweep results, solver statistics, and the verdict logic that
// turns an observation into a confirmation.

import (
	imon "monocle/internal/monocle"
	"monocle/internal/probe"
)

// Probe is a generated monitoring packet together with the two data plane
// outcomes it discriminates between (rule present / rule absent).
type Probe = probe.Probe

// Outcome describes what the data plane does to a probe under one of the
// two hypotheses.
type Outcome = probe.Outcome

// ProbeStats captures per-probe generation metrics (instance size and
// solver effort).
type ProbeStats = probe.Stats

// ProbeResult is the outcome of generating a probe for one rule of a
// table: the rule, the probe (nil on error), and the error, if any.
type ProbeResult = probe.Result

// WorkerStats aggregates one sweep worker's solver effort
// (decisions/propagations/conflicts and the cluster/rule split).
type WorkerStats = probe.WorkerStats

// CacheStats counts session-cache activity across table epochs (hits,
// delta recompiles, full rebuilds).
type CacheStats = probe.CacheStats

// Probe generation errors.
var (
	// ErrUnmonitorable reports that no probe packet can distinguish the
	// rule's presence (hidden by higher-priority rules, or no observable
	// behaviour change — §3.5 of the paper).
	ErrUnmonitorable = probe.ErrUnmonitorable
	// ErrRewritesProbeField reports a rule rewriting a reserved probing
	// field, which would break probe collection (§3.2).
	ErrRewritesProbeField = probe.ErrRewritesProbeField
)

// Verdict names which of a probe's two outcomes the data plane showed.
// This is the one definition every verdict in the library follows — the
// Monitor's observations, Judge, EvaluateProbe, every Backend's
// ObserveBatch and UpdateReply.Verdict:
//
//   - VerdictConfirmed ("confirmed"): the observation matches the Present
//     outcome and not the Absent one;
//   - VerdictAbsent ("absent"): it matches the Absent outcome and not the
//     Present one;
//   - VerdictUnexpected ("unexpected"): it matches neither, or both.
//
// Silence is evidence too: a probe that is never caught shows whichever
// outcome no catcher can see (a drop, or emissions toward hosts only).
// Verdicts are evidence-relative, not expectation-relative, so success
// depends on the operation: "confirmed" for additions, modifications and
// sweeps, "absent" for deletions (the probe fell through the deleted
// rule).
type Verdict = imon.Verdict

// Verdict values; see Verdict for the definition.
const (
	VerdictConfirmed  = imon.VerdictConfirmed
	VerdictAbsent     = imon.VerdictAbsent
	VerdictUnexpected = imon.VerdictUnexpected
)

// Judge classifies an observed (port, header) pair against a probe's two
// outcomes, as Verdict defines. The ingress port of the observing switch
// is not part of the emitted packet, so in_port is masked on both sides,
// as the proxy Monitor does.
func Judge(p *Probe, port PortID, obs Header) Verdict {
	seen := Emission{Port: port, Header: obs}
	matches := func(o Outcome) bool { return !o.Drop && emissionExpected(o.Emissions, seen) }
	return imon.Classify(matches(p.Present), matches(p.Absent))
}
