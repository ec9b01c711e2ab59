package cluster

import (
	"fmt"
	"testing"
)

func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

func TestOwnerDeterministic(t *testing.T) {
	reps := replicaNames(4)
	for id := uint32(1); id <= 1000; id++ {
		a := Owner(reps, id)
		b := Owner(reps, id)
		if a != b {
			t.Fatalf("Owner(%d) unstable: %q vs %q", id, a, b)
		}
		// Order of the membership list must not matter.
		shuffled := []string{reps[2], reps[0], reps[3], reps[1]}
		if c := Owner(shuffled, id); c != a {
			t.Fatalf("Owner(%d) depends on list order: %q vs %q", id, a, c)
		}
	}
}

func TestOwnerEmpty(t *testing.T) {
	if got := Owner(nil, 7); got != "" {
		t.Fatalf("Owner(nil) = %q, want \"\"", got)
	}
}

func TestOwnerSingleReplica(t *testing.T) {
	for id := uint32(1); id <= 100; id++ {
		if got := Owner([]string{"solo"}, id); got != "solo" {
			t.Fatalf("Owner(solo, %d) = %q", id, got)
		}
	}
}

// TestRendezvousMinimalDisruption is the property that makes shard
// reassignment survivable: removing one replica moves only that replica's
// switches; every other assignment is untouched.
func TestRendezvousMinimalDisruption(t *testing.T) {
	reps := replicaNames(4)
	without := []string{"shard-0", "shard-1", "shard-3"} // shard-2 removed
	for id := uint32(1); id <= 2000; id++ {
		before := Owner(reps, id)
		after := Owner(without, id)
		if before != "shard-2" && before != after {
			t.Fatalf("switch %d moved %q -> %q although its owner stayed in the set", id, before, after)
		}
		if before == "shard-2" && after == "shard-2" {
			t.Fatalf("switch %d still owned by removed replica", id)
		}
	}
}

// TestRendezvousBalance sanity-checks the spread: across 4 replicas and
// 4000 switches no replica should own a wildly disproportionate share.
func TestRendezvousBalance(t *testing.T) {
	reps := replicaNames(4)
	owned := make(map[string]int, len(reps))
	for id := uint32(1); id <= 4000; id++ {
		owned[Owner(reps, id)]++
	}
	for _, name := range reps {
		if n := owned[name]; n < 500 || n > 1500 {
			t.Fatalf("replica %s owns %d of 4000 switches — hash badly skewed", name, n)
		}
	}
}

func TestScoreSeparator(t *testing.T) {
	// The zero separator keeps (name, id) encodings prefix-free enough
	// that these adversarial pairs score differently.
	if Score("a", 0x62000001) == Score("ab", 1) {
		t.Fatal("Score collides across name/id boundary")
	}
}

func TestKeyLess(t *testing.T) {
	ordered := []Key{
		{Round: 1, Switch: 1, Rule: 1, Seq: 1},
		{Round: 1, Switch: 1, Rule: 2, Seq: 2},
		{Round: 1, Switch: 2, Rule: 0, Seq: 1},
		{Round: 2, Switch: 1, Rule: 0, Seq: 3},
		{Round: 2, Switch: 1, Rule: 0, Seq: 4},
	}
	for i := range ordered {
		for j := range ordered {
			want := i < j
			if got := ordered[i].Less(ordered[j]); got != want {
				t.Fatalf("Less(%v, %v) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
}
