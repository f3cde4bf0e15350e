package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// groupByDiscernibility is the legacy GroupBy-ordered formulation, kept as
// the reference semantics for the Grouper-based hot path.
func groupByDiscernibility(t *dataset.Table, k int) float64 {
	qis := t.Schema().IndicesOf(dataset.QuasiIdentifier)
	n := float64(t.NumRows())
	var cdm float64
	for _, e := range t.GroupBy(qis) {
		size := float64(len(e))
		if len(e) >= k {
			cdm += size * size
		} else {
			cdm += n * size
		}
	}
	return cdm
}

// TestDiscernibilityMatchesGroupBy pins the exact-integer-sum argument: the
// Grouper visits classes in a different order than GroupBy, but every C_DM
// term is an integer < 2⁵³, so the sum is exact and the bits must agree.
func TestDiscernibilityMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema, err := dataset.NewSchema(
		dataset.Column{Name: "q1", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "q2", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "s", Class: dataset.Sensitive, Kind: dataset.Number},
	)
	if err != nil {
		t.Fatal(err)
	}
	var g dataset.Grouper
	for trial := 0; trial < 40; trial++ {
		tb := dataset.New(schema)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			row := []dataset.Value{
				dataset.Num(float64(rng.Intn(9))),
				dataset.Span(float64(rng.Intn(4)), float64(4+rng.Intn(4))),
				dataset.Num(rng.Float64()),
			}
			if rng.Intn(9) == 0 {
				row[0] = dataset.NullValue()
			}
			if err := tb.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 2, 5} {
			got, err := DiscernibilityWith(tb, k, &g)
			if err != nil {
				t.Fatal(err)
			}
			want := groupByDiscernibility(tb, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d k=%d: Grouper C_DM %v != GroupBy C_DM %v", trial, k, got, want)
			}
		}
	}
}
