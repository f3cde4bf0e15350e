package microagg

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// BenchmarkAssign pins the MDAV partitioning cost, which the whole sweep
// rides on, from the paper's 40-row cohort to the service's 10⁴-row ones.
// ReportAllocs tracks preallocation: the group-carving loop must not
// allocate.
func BenchmarkAssign(b *testing.B) {
	for _, rows := range []int{40, 250, 1000, 10000} {
		p, _, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: rows})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			a := New()
			for i := 0; i < b.N; i++ {
				if _, err := a.Assign(p, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
