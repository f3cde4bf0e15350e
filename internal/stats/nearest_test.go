package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// TestNearestKeepsSmallestPairs: on tie-heavy random streams, a reused
// Nearest returns exactly the k smallest (distance, index) pairs in
// ascending order, the prefix of a full sort.
func TestNearestKeepsSmallestPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Nearest
	for trial := 0; trial < 200; trial++ {
		n, k := 1+rng.Intn(60), 1+rng.Intn(12)
		all := make([]DistIdx, n)
		for i := range all {
			all[i] = DistIdx{D: float64(rng.Intn(5)), Idx: i}
		}
		rng.Shuffle(n, func(a, b int) { all[a], all[b] = all[b], all[a] })
		q.Reset(k)
		for _, c := range all {
			q.Offer(c)
		}
		got := slices.Clone(q.Sorted())
		slices.SortFunc(all, func(a, b DistIdx) int {
			if a.Less(b) {
				return -1
			}
			if b.Less(a) {
				return 1
			}
			return 0
		})
		want := all[:min(k, n)]
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): got %v, want %v", trial, n, k, got, want)
		}
	}
}
