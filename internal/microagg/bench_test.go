package microagg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// BenchmarkAssign pins the MDAV partitioning cost, which the whole sweep
// rides on, from the paper's 40-row cohort to the service's 10⁴-row ones.
// ReportAllocs tracks preallocation: the group-carving loop must not
// allocate. The sweep cases run k = 2..16 per op, as a fred-sweep does, on
// the 10⁴-row cohort, on the tie-heavy grid and on a heavy-tailed
// (lognormal) table, whose later centroids lie far from the radial bound's
// anchor. Each fresh Assign builds the tree again; each prepared case
// builds it once per op and runs the 15 levels from it, as a sweep does.
func BenchmarkAssign(b *testing.B) {
	var cohort *dataset.Table
	for _, rows := range []int{40, 250, 1000, 10000} {
		p, _, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: rows})
		if err != nil {
			b.Fatal(err)
		}
		cohort = p
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
	lognormal := numTable(b, drawRows(10000, 2, 23, func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }))
	for _, c := range []struct {
		name string
		tbl  *dataset.Table
	}{
		{"university", cohort},
		{"quantized", quantizedTable(b, 10000, 5)},
		{"lognormal", lognormal},
	} {
		b.Run(fmt.Sprintf("sweep=2-16/%s/rows=%d", c.name, c.tbl.NumRows()), func(b *testing.B) {
			a := New()
			for i := 0; i < b.N; i++ {
				for k := 2; k <= 16; k++ {
					if _, err := a.Assign(c.tbl, k); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("prepared/sweep=2-16/%s/rows=%d", c.name, c.tbl.NumRows()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := prepare(c.tbl, true)
				for k := 2; k <= 16; k++ {
					kn, err := p.level(k)
					if err != nil {
						b.Fatal(err)
					}
					kn.assign(k)
				}
			}
		})
	}
}
