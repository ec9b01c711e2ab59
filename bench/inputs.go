package main

// Seeded workload inputs. Everything the monitor is given — tables,
// churn plans, rule-op sequences, fault schedules — is a function of
// (workload, seed) alone (fault schedules also of which rules the first
// round judged healthy, itself fixed by the seed); the same seed gives
// the same inputs.

import (
	"math/rand"
	"sort"

	"monocle"
)

// shape is a workload's fleet size.
type shape struct {
	switches, rules int
	wire            bool // rig switches over TCP; false: SimBackend
}

func shapeOf(workload string) shape {
	if workload == "churn_cpu" {
		return shape{switches: 32, rules: 500}
	}
	return shape{switches: 8, rules: 200, wire: true}
}

// mix derives an independent stream seed (splitmix64 finalizer).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// table returns switch id's Stanford-shaped rule set: GenerateDataset
// with Rules=rules, Ports=4 (the rig's ports), Seed=f(seed, id), with
// its drop count pinned (see pinDrops).
func table(seed int64, id uint32, rules int) []*monocle.Rule {
	p := monocle.StanfordDataset()
	p.Rules = rules
	p.Ports = len(rigPorts)
	p.Seed = mix(seed, uint64(id))
	_, rs := monocle.GenerateDataset(p)
	pinDrops(rs, p.DenyFraction, rand.New(rand.NewSource(p.Seed)))
	return rs
}

// pinDrops makes exactly round(frac × non-default rules) of rs drop
// rules, turning seeded random drops into forwards or forwards into
// drops. GenerateDataset draws each rule's action independently, so its
// drop count varies by seed; on the wire a drop rule's probe waits out
// the observe deadline, and the number of such probes per switch sets
// the round time (an in-flight window of 64 drains in 150 ms waves).
// Pinning it makes every seed the same workload.
func pinDrops(rs []*monocle.Rule, frac float64, rng *rand.Rand) {
	body := rs[:len(rs)-1] // the default route stays as generated
	var drops, fwds []*monocle.Rule
	for _, r := range body {
		if len(r.Actions) == 0 {
			drops = append(drops, r)
		} else {
			fwds = append(fwds, r)
		}
	}
	want := int(frac*float64(len(body)) + 0.5)
	for len(drops) > want {
		i := rng.Intn(len(drops))
		drops[i].Actions = []monocle.Action{monocle.Output(rigPorts[rng.Intn(len(rigPorts))])}
		drops = append(drops[:i], drops[i+1:]...)
	}
	for len(drops) < want {
		i := rng.Intn(len(fwds))
		fwds[i].Actions = nil
		drops = append(drops, fwds[i])
		fwds = append(fwds[:i], fwds[i+1:]...)
	}
}

// newRNG returns the seeded stream for one input family.
func newRNG(seed int64, family uint64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, 1<<32+family)))
}

// churnOp is one churn_cpu modify: a forwarding rule of a switch and the
// port its output moves to.
type churnOp struct {
	Switch uint32
	Rule   uint64
	Port   uint16
}

// churnRound returns round n's modifies, drawn from each switch's
// forwarding rules. The plan is infinite and seeded: round n's ops
// depend only on (seed, n).
func churnRound(seed int64, n int, tables map[uint32][]*monocle.Rule, perSwitch int) []churnOp {
	rng := newRNG(seed, 2<<16+uint64(n))
	var ops []churnOp
	for id := uint32(1); id <= uint32(len(tables)); id++ {
		fwd := forwardingRules(tables[id])
		for k := 0; k < perSwitch && len(fwd) > 0; k++ {
			r := fwd[rng.Intn(len(fwd))]
			ops = append(ops, churnOp{Switch: id, Rule: r.ID, Port: uint16(1 + rng.Intn(len(rigPorts)))})
		}
	}
	return ops
}

func forwardingRules(rules []*monocle.Rule) []*monocle.Rule {
	var out []*monocle.Rule
	for _, r := range rules {
		if len(r.Actions) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// ruleOp is one rule_ops triple: the rule added to a switch and the
// port the modify moves its output to.
type ruleOp struct {
	Switch uint32
	Rule   *monocle.Rule
	Moved  uint16
}

// ruleOpFor returns triple i of rule_ops, on switch 1 + i mod switches:
// a fresh id, a priority above every installed rule, IPv4 TCP or UDP to
// a well-known port, and source and destination prefixes that overlap
// no prefix of the switch's table. Only the default route lies beneath
// the rule, so the add, modify and delete probes each have two
// catchable, distinct outcomes (output p versus the default route's
// port): every verdict settles on a catch, never on silence. Ops whose
// settling outcome is silent race the FlowMod commit (ROADMAP 1) and
// return a stale verdict in a varying few per run, so they are left out
// until that is fixed.
func ruleOpFor(seed int64, i int, tables map[uint32][]*monocle.Rule) ruleOp {
	id := uint32(1 + i%len(tables))
	rules := tables[id]
	rng := newRNG(seed, 4<<16+uint64(i))
	def := rules[len(rules)-1] // GenerateDataset's default route
	defPort := uint16(def.Actions[0].Port)
	ports := make([]uint16, 0, len(rigPorts)-1)
	for _, p := range rigPorts {
		if uint16(p) != defPort {
			ports = append(ports, uint16(p))
		}
	}
	rng.Shuffle(len(ports), func(a, b int) { ports[a], ports[b] = ports[b], ports[a] })
	proto := uint64(monocle.ProtoTCP)
	if rng.Intn(3) == 0 {
		proto = monocle.ProtoUDP
	}
	m := monocle.MatchAll().
		WithExact(monocle.EthType, monocle.EthTypeIPv4).
		With(monocle.IPSrc, disjointPrefix(rng, rules, monocle.IPSrc)).
		With(monocle.IPDst, disjointPrefix(rng, rules, monocle.IPDst)).
		WithExact(monocle.IPProto, proto).
		WithExact(monocle.TPDst, wellKnownPorts[rng.Intn(len(wellKnownPorts))])
	r := &monocle.Rule{
		ID:       1_000_000 + uint64(i),
		Priority: len(rules) + 100,
		Match:    m,
		Actions:  []monocle.Action{monocle.Output(monocle.PortID(ports[0]))},
	}
	return ruleOp{Switch: id, Rule: r, Moved: ports[1]}
}

// wellKnownPorts are the service ports the added rules match.
var wellKnownPorts = []uint64{22, 25, 53, 80, 123, 443, 3306, 8080}

// disjointPrefix draws a /16../24 prefix of field f that overlaps no
// prefix any rule in rules matches on f.
func disjointPrefix(rng *rand.Rand, rules []*monocle.Rule, f monocle.FieldID) monocle.Ternary {
	for {
		t := monocle.Prefix(f, uint64(rng.Uint32()), 16+rng.Intn(9))
		disjoint := true
		for _, r := range rules {
			if u := r.Match[f]; u.Mask != 0 && (u.Value^t.Value)&u.Mask&t.Mask == 0 {
				disjoint = false
				break
			}
		}
		if disjoint {
			return t
		}
	}
}

// faultPlan returns the (switch, rule) pairs fault_detect fails, in
// injection order: fault i lands on switch 1 + i mod switches, so the
// faulted rules spread evenly over the sweep order (detection latency
// depends on where in a round the rule is probed), each a seeded random
// pick among that switch's healthy rules, none picked twice.
func faultPlan(seed int64, healthy map[uint32][]uint64, switches, n int) [][2]uint64 {
	rng := newRNG(seed, 3)
	pools := make(map[uint32][]uint64, switches)
	for id := uint32(1); id <= uint32(switches); id++ {
		pool := append([]uint64(nil), healthy[id]...)
		sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pools[id] = pool
	}
	var plan [][2]uint64
	for i := 0; len(plan) < n && i < n*switches; i++ {
		id := uint32(1 + i%switches)
		if pool := pools[id]; len(pool) > 0 {
			plan = append(plan, [2]uint64{uint64(id), pool[0]})
			pools[id] = pool[1:]
		}
	}
	return plan
}
