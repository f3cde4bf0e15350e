package metrics

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/microagg"
	"repro/internal/mondrian"
)

// BenchmarkUtility pins the cost of U = 1/C_DM on the releases a sweep
// level scores: the 2·10⁴-row university cohort anonymized at k = 8 by
// mondrian and by MDAV, sensitive column suppressed, through one warm
// Grouper as a sweep's pooled level scratch holds it.
func BenchmarkUtility(b *testing.B) {
	p, _, err := datagen.University(datagen.UniversityConfig{Seed: 42, N: 20000})
	if err != nil {
		b.Fatal(err)
	}
	for _, anon := range []interface {
		Name() string
		Anonymize(*dataset.Table, int) (*dataset.Table, error)
	}{mondrian.New(), microagg.New()} {
		rel, err := anon.Anonymize(p, 8)
		if err != nil {
			b.Fatal(err)
		}
		rel = rel.WithSuppressed(rel.Schema().IndicesOf(dataset.Sensitive)...)
		b.Run(anon.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var g dataset.Grouper
			for b.Loop() {
				if _, err := UtilityWith(rel, 8, &g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
