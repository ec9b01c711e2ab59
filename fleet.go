package monocle

// Fleet: the sharded multi-switch sweep service. The paper deploys one
// Monocle proxy per switch-controller connection (§7); a production
// deployment monitors a fleet. Fleet owns one Verifier (or self-sweeping
// backend) per member switch and shards a bounded solver-worker budget
// across concurrent per-switch sweeps.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDuplicateSwitch reports an AddSwitch/AddBackend/AttachBackend id
// already registered in the fleet.
var ErrDuplicateSwitch = errors.New("monocle: switch already in the fleet")

// Fleet verifies a fleet of switches. Members are added with AddSwitch
// (offline/sweep verification), AddBackend (a Verifier paired with a
// data-plane driver) or AttachBackend (a self-sweeping live driver); Sweep
// and SweepPlan run steady-state probe generation across every member
// under the fleet-wide worker budget (WithWorkers). Fleet is safe for
// concurrent use.
type Fleet struct {
	set settings

	mu      sync.Mutex
	members []*fleetMember
	byID    map[uint32]*fleetMember
}

// fleetMember is one monitored switch: verifier-backed (AddSwitch,
// AddBackend) or self-sweeping backend-backed (AttachBackend). be, when
// set, is the data-plane driver paired with the member.
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
// id fails.
func (f *Fleet) AddSwitch(id uint32, opts ...Option) (*Verifier, error) {
	v, err := newVerifier(id, &f.set, opts)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byID[id]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateSwitch, id)
	}
	m := &fleetMember{id: id, v: v}
	f.members = append(f.members, m)
	f.byID[id] = m
	return v, nil
}

// AddBackend registers switch backend be for sweep verification: the
// member gets a facade Verifier for its expected table (like AddSwitch)
// paired with be as its data-plane driver, so consumers — the monocled
// Service above all — can judge every generated probe against the data
// plane through the Backend seam. Per-switch options override the
// fleet-wide ones. The caller connects and closes the backend.
func (f *Fleet) AddBackend(be Backend, opts ...Option) (*Verifier, error) {
	id := be.SwitchID()
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

// AttachBackend registers a self-sweeping backend: one that owns its
// switch's expected flow table (a live ProxyBackend learning it from the
// FlowMods it proxies) and therefore implements Sweeper. Such members are
// swept through the driver itself, concurrently with verifier-backed
// members under the fleet worker budget. The caller connects and closes
// the backend.
func (f *Fleet) AttachBackend(be Backend) error {
	if _, ok := be.(Sweeper); !ok {
		return fmt.Errorf("monocle: backend for switch %d does not sweep its own expected table (no Sweeper); use AddBackend with a Verifier instead", be.SwitchID())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byID[be.SwitchID()]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateSwitch, be.SwitchID())
	}
	m := &fleetMember{id: be.SwitchID(), be: be}
	f.members = append(f.members, m)
	f.byID[be.SwitchID()] = m
	return nil
}

// Backend returns the data-plane driver of a switch registered with
// AddBackend or AttachBackend.
func (f *Fleet) Backend(id uint32) (Backend, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byID[id]
	if !ok || m.be == nil {
		return nil, false
	}
	return m.be, true
}

// Verifier returns the Verifier of a switch added with AddSwitch.
func (f *Fleet) Verifier(id uint32) (*Verifier, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byID[id]
	if !ok || m.v == nil {
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

// Sweep runs one steady-state sweep over every member switch and returns
// the per-rule events grouped by member in registration order (rules in
// table priority order within a member). Verifier-backed members sweep
// concurrently under the fleet worker budget; each member's probe set is
// bit-identical to a standalone sweep of its table regardless of the
// budget or the sharding.
func (f *Fleet) Sweep(ctx context.Context) []SweepEvent {
	members := f.snapshot()
	perMember := make([][]SweepEvent, len(members))
	f.sweepInto(ctx, members, nil, func(i int, evs []SweepEvent) { perMember[i] = evs })
	return collectEvents(perMember)
}

// SweepPlan runs one sweep restricted to a probe plan: only member
// switches present in sel are swept, each over the given rule-id subset.
// A nil subset sweeps the member's whole table; an empty non-nil subset
// sweeps nothing for that member (a sampled round that chose no rules)
// while still claiming its sweep slot. Event ordering and determinism
// match Sweep: members in registration order, rules in table priority
// order, bit-identical for any worker budget.
func (f *Fleet) SweepPlan(ctx context.Context, sel map[uint32][]uint64) []SweepEvent {
	members := f.snapshot()
	picked := members[:0:0]
	for _, m := range members {
		if _, ok := sel[m.id]; ok {
			picked = append(picked, m)
		}
	}
	perMember := make([][]SweepEvent, len(picked))
	f.sweepInto(ctx, picked, sel, func(i int, evs []SweepEvent) { perMember[i] = evs })
	return collectEvents(perMember)
}

// collectEvents concatenates per-member event slices into one result
// sized in a single allocation (the old grow-by-append doubled its way
// up every round), then recycles the per-member backing arrays for the
// next round's memberEvents.
func collectEvents(perMember [][]SweepEvent) []SweepEvent {
	total := 0
	for _, evs := range perMember {
		total += len(evs)
	}
	out := make([]SweepEvent, 0, total)
	for _, evs := range perMember {
		out = append(out, evs...)
		recycleMemberEvents(evs)
	}
	return out
}

// snapshot copies the member list under the lock.
func (f *Fleet) snapshot() []*fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fleetMember(nil), f.members...)
}

// sweepInto sweeps every member concurrently, invoking done(i, events)
// once per member. The worker budget B is sharded: with K = min(B,
// members) member sweeps in flight, each gets B/K solver workers, so the
// fleet never runs more than B solver goroutines at once. Self-sweeping
// backends marshal onto their own loops internally, so they join the
// same pool.
//
// sel, when non-nil, restricts each member to a rule-id subset (SweepPlan):
// verifier-backed members generate only the subset; self-sweeping members
// sweep their own table and the events are filtered afterwards (their
// table is theirs to enumerate).
func (f *Fleet) sweepInto(ctx context.Context, members []*fleetMember, sel map[uint32][]uint64, done func(int, []SweepEvent)) {
	k := len(members)
	if k == 0 {
		return
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
				if i >= len(members) {
					return
				}
				m := members[i]
				subset, limited := planSubset(sel, m.id)
				var (
					epoch   uint64
					results []ProbeResult
				)
				switch {
				case m.v != nil && limited:
					epoch, results = m.v.sweepSubset(ctx, subset)
				case m.v != nil:
					epoch, results = m.v.sweepShard(ctx, share)
				default:
					epoch, results = m.be.(Sweeper).SweepExpected(ctx, share)
					if limited {
						results = filterResults(results, subset)
					}
				}
				done(i, memberEvents(m.id, epoch, results))
			}
		}()
	}
	wg.Wait()
}

// planSubset looks up one member's rule subset in a sweep plan. The second
// return is false when the member should sweep its whole table (no plan,
// or a nil subset).
func planSubset(sel map[uint32][]uint64, id uint32) ([]uint64, bool) {
	if sel == nil {
		return nil, false
	}
	subset, ok := sel[id]
	return subset, ok && subset != nil
}

// filterResults keeps only results for the planned rule ids, preserving
// order.
func filterResults(results []ProbeResult, ids []uint64) []ProbeResult {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := results[:0:0]
	for _, res := range results {
		if res.Rule != nil && want[res.Rule.ID] {
			out = append(out, res)
		}
	}
	return out
}

// memberEvents wraps one member's sweep results as events, reusing a
// recycled backing array when one fits (see collectEvents).
func memberEvents(id uint32, epoch uint64, results []ProbeResult) []SweepEvent {
	evs := takeMemberEvents(len(results))
	for _, res := range results {
		evs = append(evs, SweepEvent{SwitchID: id, Epoch: epoch, Result: res})
	}
	return evs
}

// memberEventPool recycles per-member event slice backing arrays across
// sweep rounds.
var memberEventPool sync.Pool

// takeMemberEvents returns a zero-length event slice with capacity for
// n, pooled when a big-enough recycled array is available.
func takeMemberEvents(n int) []SweepEvent {
	if p, ok := memberEventPool.Get().(*[]SweepEvent); ok {
		if evs := *p; cap(evs) >= n {
			return evs[:0]
		}
	}
	return make([]SweepEvent, 0, n)
}

// recycleMemberEvents clears and pools one per-member slice. Elements
// are zeroed first so the pool does not pin the round's Rule and Probe
// objects beyond the round that produced them.
func recycleMemberEvents(evs []SweepEvent) {
	if cap(evs) == 0 {
		return
	}
	evs = evs[:cap(evs)]
	for i := range evs {
		evs[i] = SweepEvent{}
	}
	boxed := evs[:0]
	memberEventPool.Put(&boxed)
}
