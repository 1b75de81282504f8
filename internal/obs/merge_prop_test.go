package obs

import (
	"math/rand"
	"reflect"
	"testing"

	"shelfsim/internal/isa"
)

// randomCollector fills a collector through Observe and the chip
// recorders with rng-driven values, exercising every counter family
// including the chip gauges.
func randomCollector(rng *rand.Rand) *Collector {
	c := New()
	for i, n := 0, 20+rng.Intn(40); i < n; i++ {
		op := isa.OpClass(rng.Intn(int(isa.NumOpClasses)))
		switch rng.Intn(6) {
		case 0:
			c.Observe(steerEv(op, rng.Intn(2) == 0))
		case 1:
			c.Observe(issueEv(op, rng.Intn(2) == 0, rng.Int63n(50), rng.Int63n(200)))
		case 2:
			c.Observe(cycleEv(CycleSample{
				DispatchSlots: rng.Intn(9), IssueSlots: rng.Intn(9),
				IQ: rng.Int63n(64), ROB: rng.Int63n(256), Shelf: rng.Int63n(64),
				LQ: rng.Int63n(64), SQ: rng.Int63n(64), PRF: rng.Int63n(200),
				Ready: rng.Int63n(32), Wakeups: rng.Int63n(32),
			}))
		case 3:
			c.Observe(squashEv(SquashCause(rng.Intn(int(NumSquashCauses)))))
		case 4:
			c.RecordChipEpoch(rng.Int63n(4))
		case 5:
			c.RecordChipCore(rng.Int63n(10000), 1+rng.Int63n(4))
		}
	}
	return c
}

// mergeAll folds the collectors in the given order into a fresh collector.
func mergeAll(cs []*Collector, order []int) *Collector {
	out := New()
	for _, i := range order {
		out.Merge(cs[i])
	}
	return out
}

// TestMergePropertyCommutativeAssociative is the chip-merge property test:
// merging N per-core collectors must produce the same aggregate for every
// merge order and association tree, because the chip merges per-core
// telemetry in whatever order segments close.
func TestMergePropertyCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		cs := make([]*Collector, n)
		for i := range cs {
			cs[i] = randomCollector(rng)
		}

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		want := mergeAll(cs, order)

		// Random permutations: commutativity.
		for p := 0; p < 4; p++ {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := mergeAll(cs, order)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: merge order %v changed the aggregate", trial, order)
			}
			if !reflect.DeepEqual(want.Snapshot(), got.Snapshot()) {
				t.Fatalf("trial %d: merge order %v changed the snapshot", trial, order)
			}
		}

		// Random association trees: merge random subgroups first, then fold
		// the partial aggregates.
		for p := 0; p < 4; p++ {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			cut := 1 + rng.Intn(n-1)
			left := mergeAll(cs, order[:cut])
			right := mergeAll(cs, order[cut:])
			left.Merge(right)
			if !reflect.DeepEqual(want.Snapshot(), left.Snapshot()) {
				t.Fatalf("trial %d: association ((%v)(%v)) changed the snapshot",
					trial, order[:cut], order[cut:])
			}
		}

		// Merging must not mutate the sources.
		for i, c := range cs {
			fresh := New()
			fresh.Merge(c)
			if !reflect.DeepEqual(fresh, c.Clone()) {
				t.Fatalf("trial %d: merge mutated source collector %d", trial, i)
			}
		}
	}
}
