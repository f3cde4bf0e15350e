package mondrian

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/parallel"
)

// BenchmarkPartition pins the cost of the mondrian partition layer, from the
// paper's 40-row cohort to the service's 2·10⁴- and 10⁵-row ones, inline
// (workers=1) and under a two-token budget (workers=2). The prepared case
// is one level of a sweep: P's sorted columns prepared once, outside the
// loop, and each op partitioning and writing the release at k = 8.
func BenchmarkPartition(b *testing.B) {
	for _, rows := range []int{40, 20000, 100000} {
		p, _, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: rows})
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				a, budget := New(), parallel.NewBudget(workers)
				for b.Loop() {
					if _, err := a.PartitionParallel(p, 8, budget); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("prepared/rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				budget := parallel.NewBudget(workers)
				level := New().Prepare(p, budget)
				for b.Loop() {
					if _, err := level(8, budget); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
