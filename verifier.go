package monocle

// Verifier: the single-switch verification facade. It owns one expected
// flow table and the incremental probe engine compiled for it, and turns
// table operations into the probes that confirm them in the data plane.

import (
	"context"
	"fmt"
	"sync"

	"monocle/internal/flowtable"
	"monocle/internal/probe"
)

// Verifier verifies one switch's flow table: it tracks the expected rule
// set, generates steady-state probes for any installed rule, and builds
// dynamic-update confirmation probes for additions, modifications, and
// deletions. The compiled table library is cached across operations —
// changing a handful of rules recompiles only those rules.
//
// A Verifier is safe for concurrent use; operations serialize on an
// internal mutex (whole-table sweeps parallelize internally across the
// configured worker budget).
type Verifier struct {
	mu    sync.Mutex
	set   settings
	id    uint32
	gen   *probe.Generator
	table *flowtable.Table
	cache *probe.SessionCache
	epoch uint64
}

// NewVerifier returns a Verifier for one switch. With no options, probes
// carry no Collect constraint (useful for offline generation and tests);
// production monitoring sets WithProbeTag (or a switch id via Fleet) so
// probes are catchable downstream. A tag outside 1–4094 is an error.
func NewVerifier(opts ...Option) (*Verifier, error) {
	return newVerifier(0, nil, opts)
}

// newVerifier builds a Verifier for switch id, merging fleet-level and
// per-switch options.
func newVerifier(id uint32, base *settings, opts []Option) (*Verifier, error) {
	set := defaultSettings()
	if base != nil {
		set = *base
	}
	set.apply(opts)
	cfg, err := set.probeConfig(id)
	if err != nil {
		return nil, err
	}
	v := &Verifier{
		set:   set,
		id:    id,
		gen:   probe.NewGenerator(cfg),
		table: flowtable.New(),
	}
	v.table.Miss = set.miss
	v.cache = v.gen.NewSessionCache(v.table)
	return v, nil
}

// SwitchID returns the switch id this Verifier was registered under in a
// Fleet (zero for standalone verifiers).
func (v *Verifier) SwitchID() uint32 { return v.id }

// Install inserts rules into the expected table without generating
// confirmation probes (pre-existing state, catching rules, bulk loads).
// It stops at the first insert error and returns it.
func (v *Verifier) Install(rules ...*Rule) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range rules {
		if err := v.table.Insert(r); err != nil {
			v.epoch++
			return err
		}
	}
	v.epoch++
	return nil
}

// Add inserts a rule and returns the dynamic-update confirmation probe:
// the addition has reached the data plane once injecting the probe
// produces its Present outcome (Judge returns VerdictConfirmed).
// ErrUnmonitorable means the rule was added but cannot be confirmed by
// probing.
func (v *Verifier) Add(r *Rule) (*Probe, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.table.Insert(r); err != nil {
		return nil, err
	}
	v.epoch++
	return v.cache.Generate(v.epoch, r)
}

// Modify replaces the action list of rule id and returns the probe that
// distinguishes the new version from the old: Present corresponds to the
// new actions being active, Absent to the old ones.
func (v *Verifier) Modify(id uint64, actions []Action) (*Probe, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old, ok := v.table.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	p, genErr := v.gen.GenerateModification(v.table, old, actions)
	if err := v.table.Modify(id, actions); err != nil {
		return nil, err
	}
	v.epoch++
	return p, genErr
}

// Delete removes rule id and returns the probe confirming the deletion:
// it is confirmed once injecting the probe produces its Absent outcome
// (Judge returns VerdictAbsent — the packet fell through to the
// underlying rule or the table miss).
func (v *Verifier) Delete(id uint64) (*Probe, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old, ok := v.table.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	// Generate while the rule is still present: the probe needs both
	// hypotheses of the pre-deletion table.
	p, genErr := v.cache.Generate(v.epoch, old)
	if err := v.table.Delete(id); err != nil {
		return nil, err
	}
	v.epoch++
	return p, genErr
}

// ProbeFor generates the steady-state probe for an installed rule, or
// returns its last result when no table change touched the rule since:
// it is the probe a Sweep finds for the rule.
func (v *Verifier) ProbeFor(id uint64) (*Probe, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r, ok := v.table.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return v.cache.Generate(v.epoch, r)
}

// Sweep generates probes for every installed rule — the steady-state
// monitoring set — in table priority order, fanning the solves out over
// the configured worker budget. Results are deterministic: the probe set
// is bit-identical for any worker count and for any history of the table.
// Cancelling the context stops the sweep early; unprocessed rules carry
// the context error. Only rules a table change touched since their last
// result are solved (the changed rules and those overlapping them); every
// other rule returns its last result, sharing its immutable Probe, so a
// Sweep with no table change since the last one solves nothing.
func (v *Verifier) Sweep(ctx context.Context) []ProbeResult {
	res, _ := v.SweepStats(ctx)
	return res
}

// SweepStats is Sweep surfacing per-worker solver statistics. The stats
// cover only the rules this sweep solved, and are nil when it solved none.
func (v *Verifier) SweepStats(ctx context.Context) ([]ProbeResult, []WorkerStats) {
	_, res, stats := v.sweep(ctx, nil, v.set.effectiveWorkers())
	return res, stats
}

// sweep is the one steady-state sweep: the session cache's clustered
// engine over the rules named by ids (nil: the whole table — one switch's
// share of a probe plan otherwise) under an explicit worker count.
// Results are in table priority order and bit-identical for any worker
// count; unknown ids are skipped (a plan may lag a concurrent table change
// by one round). It also returns the epoch the sweep ran at, read under
// the same lock, so concurrent table mutations cannot mislabel the
// results.
func (v *Verifier) sweep(ctx context.Context, ids []uint64, workers int) (uint64, []ProbeResult, []WorkerStats) {
	v.mu.Lock()
	defer v.mu.Unlock()
	res, stats := v.cache.GenerateAllStats(ctx, v.epoch, ids, workers)
	return v.epoch, res, stats
}

// Rule returns a copy of installed rule id, if present.
func (v *Verifier) Rule(id uint64) (*Rule, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r, ok := v.table.Get(id)
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// Rules returns the installed rules in table priority order.
func (v *Verifier) Rules() []*Rule {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.table.Rules()
}

// snapshot renders the installed rules in table order together with the
// epoch they stand at, both read under one lock so a concurrent mutation
// cannot stamp one epoch on another epoch's table.
func (v *Verifier) snapshot() (uint64, []RuleSpec) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch, ruleSpecs(v.table.View())
}

// Len returns the number of installed rules.
func (v *Verifier) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.table.Len()
}

// Epoch returns the table-change epoch (bumped on every mutation).
func (v *Verifier) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// restoreEpoch fast-forwards the table-change epoch to a persisted value
// (never backwards). The restart path needs it: a restored Differ carries
// the pre-restart epoch, and a fresh Verifier restarting from epoch zero
// would stamp every post-restart sweep event with an epoch the Differ
// discards as stale.
func (v *Verifier) restoreEpoch(e uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e > v.epoch {
		v.epoch = e
	}
}

// CacheStats returns a snapshot of the session-cache counters (hits,
// delta recompiles, rebuilds).
func (v *Verifier) CacheStats() CacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cache.Stats
}

// String identifies the verifier in logs.
func (v *Verifier) String() string { return fmt.Sprintf("verifier(S%d)", v.id) }
