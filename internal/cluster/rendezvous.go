// Package cluster holds the pure, dependency-free primitives behind the
// monocle cluster coordinator: rendezvous (highest-random-weight) shard
// assignment of switch ids to replica names, and the total order used to
// merge per-replica record streams into one deterministic global stream.
//
// Everything here is deterministic across processes and platforms: the
// hash is FNV-1a over fixed byte encodings, ties break lexicographically,
// and no state is kept between calls — so every coordinator (and every
// test) computes the same shard map from the same membership list.
package cluster

// fnv1a64 constants (FNV-1a, 64 bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Score is the rendezvous weight of replica name for switch id: FNV-1a
// over the replica name, a zero separator byte, and the big-endian switch
// id. Owner picks the replica with the highest score; exposing the raw
// weight lets tests assert the tie-break independently of Owner.
func Score(name string, id uint32) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	h ^= 0 // separator: "ab"+id and "a"+("b"<<..) must not collide by construction
	h *= fnvPrime
	for shift := 24; shift >= 0; shift -= 8 {
		h ^= uint64(byte(id >> shift))
		h *= fnvPrime
	}
	// FNV-1a barely diffuses its trailing input bytes into the high bits,
	// and rendezvous hashing compares whole words — without a final
	// avalanche the replica-name hash dominates and one replica wins every
	// switch. Finish with the murmur3 64-bit finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the replica that owns switch id under rendezvous hashing:
// the name with the highest Score, ties broken by the lexicographically
// smallest name. Owner("") is returned for an empty replica list.
// Membership changes move only the switches whose highest-scoring replica
// joined or left — every other assignment is untouched, which is the
// property that makes shard reassignment survivable.
func Owner(replicas []string, id uint32) string {
	best := ""
	var bestScore uint64
	for _, name := range replicas {
		s := Score(name, id)
		if best == "" || s > bestScore || (s == bestScore && name < best) {
			best, bestScore = name, s
		}
	}
	return best
}

// Key is the total order a coordinator merges per-replica alert streams
// by: sweep round first, then switch id, then rule id, then the replica's
// own sequence number. Switch ownership is disjoint across replicas, so
// two alerts from different replicas can never tie on (Round, Switch) —
// Seq only ever breaks ties within one replica's stream, where it is
// strictly increasing. The merged order is therefore total and identical
// for every replica count, including one.
type Key struct {
	Round  uint64
	Switch uint32
	Rule   uint64
	Seq    uint64
}

// Less reports whether k sorts before other in the merged global stream.
func (k Key) Less(other Key) bool {
	if k.Round != other.Round {
		return k.Round < other.Round
	}
	if k.Switch != other.Switch {
		return k.Switch < other.Switch
	}
	if k.Rule != other.Rule {
		return k.Rule < other.Rule
	}
	return k.Seq < other.Seq
}
