package monocle

// Fleet: the sharded multi-switch sweep service. The paper deploys one
// Monocle proxy per switch-controller connection (§7); a production
// deployment monitors a fleet. Fleet owns one Verifier per member switch
// and shards a bounded solver-worker budget across concurrent per-switch
// sweeps.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDuplicateSwitch reports an AddSwitch/AddBackend id already
// registered in the fleet.
var ErrDuplicateSwitch = errors.New("monocle: switch already in the fleet")

// Fleet verifies a fleet of switches. Members are added with AddSwitch
// (offline/sweep verification) or AddBackend (a Verifier paired with a
// data-plane driver); SweepPlan (and Sweep, its every-member form) runs
// steady-state probe generation across the members under the fleet-wide
// worker budget (WithWorkers). Fleet is safe for concurrent use.
type Fleet struct {
	set settings

	mu      sync.Mutex
	members []*fleetMember
	byID    map[uint32]*fleetMember
}

// fleetMember is one monitored switch: its Verifier and, when added with
// AddBackend, the data-plane driver paired with it.
type fleetMember struct {
	id uint32
	v  *Verifier
	be Backend
}

// SweepEvent is one per-rule result streamed from a fleet sweep.
type SweepEvent struct {
	// SwitchID identifies the member switch the result belongs to.
	SwitchID uint32
	// Epoch is the member's table-change epoch the probe was generated
	// against; results from superseded epochs can be discarded.
	Epoch uint64
	// Result carries the rule, the generated probe, and the error, if
	// any (ErrUnmonitorable, a context error, or an internal failure).
	Result ProbeResult
}

// NewFleet returns an empty fleet. WithWorkers bounds the total solver
// budget its sweeps use.
func NewFleet(opts ...Option) *Fleet {
	set := defaultSettings()
	set.apply(opts)
	return &Fleet{
		set:  set,
		byID: make(map[uint32]*fleetMember),
	}
}

// AddSwitch registers switch id for sweep verification and returns its
// Verifier. Per-switch options override the fleet-wide ones; by default
// the switch's probe tag is its id (strategy 1, §6). Adding a duplicate
// id, or a switch whose probe tag is outside 1–4094, fails.
func (f *Fleet) AddSwitch(id uint32, opts ...Option) (*Verifier, error) {
	return f.add(id, nil, opts)
}

// AddBackend registers switch backend be for sweep verification: the
// member gets a facade Verifier for its expected table (like AddSwitch)
// paired with be as its data-plane driver, so consumers — the monocled
// Service above all — can judge every generated probe against the data
// plane through the Backend seam. Per-switch options override the
// fleet-wide ones. The caller connects and closes the backend.
func (f *Fleet) AddBackend(be Backend, opts ...Option) (*Verifier, error) {
	return f.add(be.SwitchID(), be, opts)
}

// add registers one member: a fresh Verifier for switch id, paired with
// be (nil for AddSwitch).
func (f *Fleet) add(id uint32, be Backend, opts []Option) (*Verifier, error) {
	v, err := newVerifier(id, &f.set, opts)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byID[id]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateSwitch, id)
	}
	m := &fleetMember{id: id, v: v, be: be}
	f.members = append(f.members, m)
	f.byID[id] = m
	return v, nil
}

// Backend returns the data-plane driver of a switch registered with
// AddBackend.
func (f *Fleet) Backend(id uint32) (Backend, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byID[id]
	if !ok || m.be == nil {
		return nil, false
	}
	return m.be, true
}

// Verifier returns the Verifier of a member switch.
func (f *Fleet) Verifier(id uint32) (*Verifier, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byID[id]
	if !ok {
		return nil, false
	}
	return m.v, true
}

// Switches returns the member switch ids in registration order.
func (f *Fleet) Switches() []uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint32, len(f.members))
	for i, m := range f.members {
		out[i] = m.id
	}
	return out
}

// Size returns the number of member switches.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Sweep runs one steady-state sweep over every member switch: SweepPlan
// with a nil plan.
func (f *Fleet) Sweep(ctx context.Context) []SweepEvent {
	return f.SweepPlan(ctx, nil)
}

// SweepPlan runs one sweep restricted to a probe plan: only member
// switches present in sel are swept, each over the given rule-id subset.
// A nil plan sweeps every member; a nil subset sweeps the member's whole
// table; an empty non-nil subset sweeps nothing for that member (a
// sampled round that chose no rules) while still claiming its sweep
// slot. Events are grouped by member in registration order, rules in
// table priority order within a member. Members sweep concurrently under
// the fleet worker budget, and each member's probe set is bit-identical
// for any budget: a subset naming every rule yields exactly a standalone
// Verifier's sweep of the same table. A member whose table is unchanged
// since its last sweep over the same subset solves nothing: it returns
// that sweep's results again, sharing their immutable Probes. Every call
// returns a fresh slice, built in one allocation, that the fleet never
// touches again. The Service's round takes the same per-member sweeps
// unflattened: each switch is one unit from generation to fold.
func (f *Fleet) SweepPlan(ctx context.Context, sel map[uint32][]uint64) []SweepEvent {
	return sweepEvents(f.sweepPlan(ctx, sel))
}

// memberSweep is one member's sweep: the member, the table epoch it swept
// and its results.
type memberSweep struct {
	m       *fleetMember
	epoch   uint64
	results []ProbeResult
}

// sweepPlan is SweepPlan's per-member form: one sweep per member present
// in sel (nil: every member), in registration order, each over its subset
// (nil: the whole table). Members sweep concurrently. The worker budget B
// is sharded: with K = min(B, members) member sweeps in flight, each gets
// B/K solver workers, so the fleet never runs more than B solver
// goroutines at once.
func (f *Fleet) sweepPlan(ctx context.Context, sel map[uint32][]uint64) []memberSweep {
	f.mu.Lock()
	out := make([]memberSweep, 0, len(f.members))
	for _, m := range f.members {
		if _, ok := sel[m.id]; ok || sel == nil {
			out = append(out, memberSweep{m: m})
		}
	}
	f.mu.Unlock()
	k := len(out)
	if k == 0 {
		return out
	}
	budget := f.set.effectiveWorkers()
	if k > budget {
		k = budget
	}
	share := budget / k
	if share < 1 {
		share = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// A cancelled sweep stops claiming members; rules of
				// already-claimed members carry the context error.
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(out) {
					return
				}
				ms := &out[i]
				ms.epoch, ms.results, _ = ms.m.v.sweep(ctx, sel[ms.m.id], share)
			}
		}()
	}
	wg.Wait()
	return out
}

// sweepEvents flattens member sweeps into one fresh event slice, built in
// one allocation.
func sweepEvents(swept []memberSweep) []SweepEvent {
	total := 0
	for _, ms := range swept {
		total += len(ms.results)
	}
	out := make([]SweepEvent, 0, total)
	for _, ms := range swept {
		for _, res := range ms.results {
			out = append(out, SweepEvent{SwitchID: ms.m.id, Epoch: ms.epoch, Result: res})
		}
	}
	return out
}
