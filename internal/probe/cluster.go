package probe

// Scope clustering for the batch sweep: rules whose overlap scopes attach
// mostly the same compiled blocks are grouped so the shared blocks are
// attached once per cluster instead of once per rule, and so learnt
// clauses derived from the shared prefix can be carried from rule to rule
// (sat.RetractToReuse).
//
// A plan covers exactly the rules a sweep solves: their scope signatures
// are sorted lexicographically (similar scopes become neighbours) and
// grouped greedily while the running block intersection stays large, so
// planning costs one overlap scan per solved rule. The plan only shapes
// the work: each cluster is processed by one worker, in member order,
// starting from the state a new session's solver has (endCluster), and
// the solver's static header decision order makes every probe header
// independent of its cluster.

import (
	"slices"

	"monocle/internal/flowtable"
)

// maxClusterSize bounds how many rules share one cluster checkpoint. Large
// clusters amortize the prefix attach further but accumulate more learnt
// clauses before endCluster drops them (the ReduceDB cap bounds those).
const maxClusterSize = 32

// clusterMember is one rule of a cluster with its planning-time context.
type clusterMember struct {
	idx    int               // index into the swept rules (and results)
	scope  []*flowtable.Rule // precomputed overlap scope
	err    error             // reserved-field violation found at planning
	suffix []int32           // scope blocks beyond the cluster prefix
}

// cluster is a group of rules solved behind one shared-prefix checkpoint.
type cluster struct {
	prefix  []int32 // blocks every member needs (attached once)
	members []clusterMember
}

// planClusters plans the sweep of rules, which belong to the session's
// table. Only root sessions plan; forked workers receive cluster values.
func (s *Session) planClusters(rules []*flowtable.Rule) []cluster {
	n := len(rules)
	members := make([]clusterMember, n)
	sigs := make([][]int32, n)
	for i, r := range rules {
		scope, err := s.scopeFor(r)
		members[i] = clusterMember{idx: i, scope: scope, err: err}
		if err == nil {
			sigs[i] = s.sigOf(scope)
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return compareSig(sigs[a], sigs[b])
	})

	out := make([]cluster, 0, n/maxClusterSize+1)
	for i := 0; i < n; {
		seed := order[i]
		cur := cluster{members: []clusterMember{members[seed]}}
		prefix := sigs[seed]
		seedLen := len(prefix)
		i++
		for i < n && len(cur.members) < maxClusterSize {
			next := order[i]
			inter := intersectSig(prefix, sigs[next])
			// Extend only while the shared prefix keeps covering at least
			// half of both the seed's scope and the incoming rule's scope;
			// otherwise the members' suffixes outgrow the sharing win.
			if 2*len(inter) < seedLen || 2*len(inter) < len(sigs[next]) {
				break
			}
			prefix = inter
			cur.members = append(cur.members, members[next])
			i++
		}
		cur.prefix = prefix
		for m := range cur.members {
			cur.members[m].suffix = subtractSig(sigs[cur.members[m].idx], prefix)
		}
		out = append(out, cur)
	}
	return out
}

// sigOf is a rule's scope signature: the sorted, deduplicated block
// indices its overlap scope attaches. Dedup and ordering run through a
// stamp array plus an id-range scan (block ids are dense and clustered),
// which beats sorting the multiset for the table sizes swept here.
func (s *Session) sigOf(scope []*flowtable.Rule) []int32 {
	if len(s.sigStamp) < len(s.lib.blocks) {
		s.sigStamp = make([]uint32, len(s.lib.blocks))
	}
	s.sigGen++
	gen := s.sigGen
	count := 0
	lo, hi := int32(len(s.lib.blocks)), int32(-1)
	for _, r := range scope {
		for _, bi := range s.lib.ruleBlocks[r.ID] {
			if s.sigStamp[bi] != gen {
				s.sigStamp[bi] = gen
				count++
				if bi < lo {
					lo = bi
				}
				if bi > hi {
					hi = bi
				}
			}
		}
	}
	sig := make([]int32, 0, count)
	for bi := lo; bi <= hi; bi++ {
		if s.sigStamp[bi] == gen {
			sig = append(sig, bi)
		}
	}
	return sig
}

// compareSig orders signatures lexicographically (shorter prefix first).
func compareSig(a, b []int32) int {
	return slices.Compare(a, b)
}

// intersectSig merges two sorted signatures into their intersection.
func intersectSig(a, b []int32) []int32 {
	out := make([]int32, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// subtractSig returns the sorted elements of a not present in b.
func subtractSig(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			continue
		}
		out = append(out, a[i])
		i++
	}
	return out
}
