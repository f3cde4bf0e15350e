package mondrian

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// TestPreparedMatchesAnonymize: one prepared table gives, at every k in
// 2..n/2, strict and relaxed, a release Table.Equal to a fresh Anonymize
// with the same CSV bytes, whatever budget prepared it or runs the level
// (nil, one worker, two, two already stopped), and with every level of a
// table run at once on one shared budget. A sweep context keeps the form
// its first level prepared after that level's sweep has stopped its
// budget, so a stop must never leave the form partial.
func TestPreparedMatchesAnonymize(t *testing.T) {
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"tie-heavy", tieHeavyTable(t, 120, 5)},
		{"signed-zero", signedZeroTable(t, 90, 3)},
		{"masked", maskedTable(t, 100, 9)},
		{"constant-column", constantColumnTable(t, 64, 2)},
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
		for _, relaxed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/relaxed=%v", tc.name, relaxed), func(t *testing.T) {
				t.Parallel()
				a := &Anonymizer{Relaxed: relaxed}
				n := tc.tbl.NumRows()
				want := make(map[int][]byte)
				wantT := make(map[int]*dataset.Table)
				for k := 2; k <= n/2; k++ {
					rel, err := a.Anonymize(tc.tbl, k)
					if err != nil {
						t.Fatal(err)
					}
					wantT[k], want[k] = rel, csvBytes(t, rel)
				}
				check := func(label string, k int, rel *dataset.Table, err error) {
					if err != nil {
						t.Errorf("%s k=%d: %v", label, k, err)
						return
					}
					if !rel.Equal(wantT[k]) || string(csvBytes(t, rel)) != string(want[k]) {
						t.Errorf("%s k=%d: prepared release differs from a fresh Anonymize", label, k)
					}
				}
				for pi, prepB := range budgets {
					level := a.Prepare(tc.tbl, prepB())
					for bi, levelB := range budgets {
						for k := 2; k <= n/2; k++ {
							rel, err := level(k, levelB())
							check(fmt.Sprintf("prepare budget %d, level budget %d", pi, bi), k, rel, err)
						}
					}
				}
				level, shared := a.Prepare(tc.tbl, nil), parallel.NewBudget(2)
				var wg sync.WaitGroup
				for k := 2; k <= n/2; k++ {
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
}

// TestPreparedErrors: a prepared table reports k's errors, then the
// table's, with the messages and in the order Anonymize always has: k < 2,
// then k above the row count, then no quasi-identifier, a text one (before
// any non-finite value) and the first column holding a NaN or ±Inf.
func TestPreparedErrors(t *testing.T) {
	id := dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text}
	a := dataset.Column{Name: "A", Class: dataset.QuasiIdentifier, Kind: dataset.Number}
	txt := dataset.Column{Name: "T", Class: dataset.QuasiIdentifier, Kind: dataset.Text}
	b := dataset.Column{Name: "B", Class: dataset.QuasiIdentifier, Kind: dataset.Number}
	s := dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number}
	mk := func(cols []dataset.Column, rows ...[]dataset.Value) *dataset.Table {
		tb := dataset.New(dataset.MustSchema(cols...))
		for _, r := range rows {
			tb.MustAppendRow(r...)
		}
		return tb
	}
	str, num := dataset.Str, dataset.Num
	nan := math.NaN()
	tooFew := "mondrian: 3 records cannot be 4-anonymous: dataset: too few records for the requested anonymization level"
	cases := []struct {
		name  string
		tbl   *dataset.Table
		table string // the table's own error, at k = 2 and 3
	}{
		{"text-and-nan", mk([]dataset.Column{id, a, txt, b},
			[]dataset.Value{str("x"), num(1), str("u"), num(nan)},
			[]dataset.Value{str("y"), num(2), str("v"), num(3)},
			[]dataset.Value{str("z"), num(3), str("w"), num(4)}),
			`mondrian: quasi-identifier "T" is not numeric`},
		{"nan", mk([]dataset.Column{id, a, b},
			[]dataset.Value{str("x"), num(1), num(nan)},
			[]dataset.Value{str("y"), num(2), num(3)},
			[]dataset.Value{str("z"), num(math.Inf(1)), num(4)}),
			`mondrian: quasi-identifier "A" has a non-finite value (NaN or ±Inf)`},
		{"no-qi", mk([]dataset.Column{id, s},
			[]dataset.Value{str("x"), num(1)},
			[]dataset.Value{str("y"), num(2)},
			[]dataset.Value{str("z"), num(3)}),
			"mondrian: table has no quasi-identifier columns"},
	}
	for _, c := range cases {
		want := map[int]string{0: "mondrian: k must be ≥ 2, got 0", 1: "mondrian: k must be ≥ 2, got 1", 4: tooFew, 2: c.table, 3: c.table}
		level := New().Prepare(c.tbl, nil)
		for _, k := range []int{0, 1, 4, 2, 3} {
			_, errP := level(k, nil)
			_, errA := New().Anonymize(c.tbl, k)
			_, errL := New().Partition(c.tbl, k)
			for label, err := range map[string]error{"prepared": errP, "Anonymize": errA, "Partition": errL} {
				if err == nil || err.Error() != want[k] {
					t.Errorf("%s k=%d: %s err = %v, want %q", c.name, k, label, err, want[k])
				}
			}
		}
	}
}
