package microagg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// TestPreparedMatchesAnonymize: one prepared table gives, at every k in
// 1..n+1, what a fresh Anonymize gives — a release Table.Equal to it with
// the same CSV bytes, or the same error text — under the default options,
// raw distances and interval cells, whatever budget prepared it or runs
// the level (nil, one worker, two, two already stopped), and with every
// level run at once on one shared budget. The raw rows near +1e308 put the
// anchor at +Inf, and standardizing them fails at every k ≥ 2.
func TestPreparedMatchesAnonymize(t *testing.T) {
	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 3, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	huge := drawRows(40, 2, 4, (*rand.Rand).NormFloat64)
	for i := 0; i < len(huge); i += 4 {
		huge[i][0] = 1e308 * (0.5 + float64(i)/160)
	}
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"university", university},
		{"tie-heavy", quantizedTable(t, 50, 4)},
		{"coincide-after-outliers", numTable(t, outliersThenCoinciding(3, 40))},
		{"infinite-anchor", numTable(t, huge)},
	}
	budgets := []func() *parallel.Budget{
		func() *parallel.Budget { return nil },
		func() *parallel.Budget { return parallel.NewBudget(1) },
		func() *parallel.Budget { return parallel.NewBudget(2) },
		func() *parallel.Budget {
			b := parallel.NewBudget(2)
			b.Stop()
			return b
		},
	}
	for _, tc := range tables {
		for _, opts := range []Options{DefaultOptions(), {}, {Standardize: true, CentroidAsInterval: true}} {
			t.Run(fmt.Sprintf("%s/%+v", tc.name, opts), func(t *testing.T) {
				t.Parallel()
				a := &Anonymizer{Opts: opts}
				n := tc.tbl.NumRows()
				wantT := make(map[int]*dataset.Table)
				want := make(map[int]string)
				for k := 1; k <= n+1; k++ {
					rel, err := a.Anonymize(tc.tbl, k)
					if err != nil {
						want[k] = err.Error()
						continue
					}
					wantT[k], want[k] = rel, string(csvBytes(t, rel))
				}
				check := func(label string, k int, rel *dataset.Table, err error) {
					switch {
					case err != nil:
						if err.Error() != want[k] {
							t.Errorf("%s k=%d: err %q, want %q", label, k, err, want[k])
						}
					case wantT[k] == nil:
						t.Errorf("%s k=%d: a release, want error %q", label, k, want[k])
					case !rel.Equal(wantT[k]) || string(csvBytes(t, rel)) != want[k]:
						t.Errorf("%s k=%d: prepared release differs from a fresh Anonymize", label, k)
					}
				}
				for pi, prepB := range budgets {
					level := a.Prepare(tc.tbl, prepB())
					for bi, levelB := range budgets {
						for k := 1; k <= n+1; k++ {
							rel, err := level(k, levelB())
							check(fmt.Sprintf("prepare budget %d, level budget %d", pi, bi), k, rel, err)
						}
					}
				}
				level, shared := a.Prepare(tc.tbl, nil), parallel.NewBudget(2)
				var wg sync.WaitGroup
				for k := 1; k <= n+1; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rel, err := level(k, shared)
						check("concurrent", k, rel, err)
					}()
				}
				wg.Wait()
			})
		}
	}

	// On tables MDAV rejects, k's errors come first, then the table's: no
	// quasi-identifier, a text one (before any NaN), and a NaN.
	id := dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text}
	qa := dataset.Column{Name: "A", Class: dataset.QuasiIdentifier, Kind: dataset.Number}
	qt := dataset.Column{Name: "T", Class: dataset.QuasiIdentifier, Kind: dataset.Text}
	qb := dataset.Column{Name: "B", Class: dataset.QuasiIdentifier, Kind: dataset.Number}
	s := dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number}
	mk := func(cols ...dataset.Column) *dataset.Table {
		tb := dataset.New(dataset.MustSchema(cols...))
		for i := range 3 {
			row := []dataset.Value{dataset.Str(string(rune('x' + i)))}
			for _, c := range cols[1:] {
				switch {
				case c.Kind == dataset.Text:
					row = append(row, dataset.Str("u"))
				case c.Name == "B" && i == 0:
					row = append(row, dataset.Num(math.NaN()))
				default:
					row = append(row, dataset.Num(float64(i)))
				}
			}
			tb.MustAppendRow(row...)
		}
		return tb
	}
	tooFew := "microagg: fewer records than k: dataset: too few records for the requested anonymization level: 3 < 4"
	for _, c := range []struct {
		name  string
		tbl   *dataset.Table
		table string // the table's own error, at k = 2 and 3
	}{
		{"no-qi", mk(id, s), "microagg: table has no quasi-identifier columns"},
		{"text-and-nan", mk(id, qa, qt, qb), `microagg: quasi-identifier "T" is not numeric; MDAV is a quantitative method`},
		{"nan", mk(id, qa, qb), `microagg: quasi-identifier "B" has a non-finite coordinate (NaN or ±Inf)`},
	} {
		want := map[int]string{0: "microagg: k must be ≥ 2, got 0", 1: "microagg: k must be ≥ 2, got 1", 4: tooFew, 2: c.table, 3: c.table}
		level := New().Prepare(c.tbl, nil)
		for _, k := range []int{0, 1, 4, 2, 3} {
			_, errP := level(k, nil)
			_, errA := New().Anonymize(c.tbl, k)
			_, errS := New().Assign(c.tbl, k)
			for label, err := range map[string]error{"prepared": errP, "Anonymize": errA, "Assign": errS} {
				if err == nil || err.Error() != want[k] {
					t.Errorf("%s k=%d: %s err = %v, want %q", c.name, k, label, err, want[k])
				}
			}
		}
	}
}

func csvBytes(t *testing.T, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
