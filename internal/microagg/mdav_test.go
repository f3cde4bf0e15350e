package microagg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func numTable(t testing.TB, rows [][]float64) *dataset.Table {
	if t != nil {
		t.Helper()
	}
	cols := []dataset.Column{{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text}}
	for j := 0; j < len(rows[0]); j++ {
		cols = append(cols, dataset.Column{Name: string(rune('A' + j)), Class: dataset.QuasiIdentifier, Kind: dataset.Number})
	}
	tb := dataset.New(dataset.MustSchema(cols...))
	for i, r := range rows {
		cells := []dataset.Value{dataset.Str(string(rune('a'+i%26)) + string(rune('0'+i/26)))}
		for _, v := range r {
			cells = append(cells, dataset.Num(v))
		}
		tb.MustAppendRow(cells...)
	}
	return tb
}

func TestAssignGroupSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 23)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 100}
	}
	tb := numTable(t, rows)
	for k := 2; k <= 7; k++ {
		groups, err := New().Assign(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var covered int
		for _, g := range groups {
			if len(g) < k || len(g) > 2*k-1 {
				t.Errorf("k=%d: group size %d outside [k, 2k-1]", k, len(g))
			}
			covered += len(g)
		}
		if covered != len(rows) {
			t.Errorf("k=%d: covered %d of %d rows", k, covered, len(rows))
		}
	}
}

func TestAnonymizeIsKAnonymous(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 50, float64(i % 3)}
	}
	tb := numTable(t, rows)
	for _, k := range []int{2, 3, 5, 8} {
		anon, err := New().Anonymize(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		qis := anon.Schema().IndicesOf(dataset.QuasiIdentifier)
		for _, g := range anon.GroupBy(qis) {
			if len(g) < k {
				t.Errorf("k=%d: equivalence class of size %d", k, len(g))
			}
		}
		// Identifiers must be untouched.
		for i := 0; i < tb.NumRows(); i++ {
			if !anon.Cell(i, 0).Equal(tb.Cell(i, 0)) {
				t.Fatalf("identifier cell %d modified", i)
			}
		}
	}
}

func TestAnonymizeIntervalMode(t *testing.T) {
	rows := [][]float64{{1}, {2}, {10}, {11}}
	tb := numTable(t, rows)
	a := &Anonymizer{Opts: Options{Standardize: true, CentroidAsInterval: true}}
	anon, err := a.Anonymize(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two tight pairs: [1-2] and [10-11].
	got := map[string]bool{}
	for i := 0; i < anon.NumRows(); i++ {
		got[anon.Cell(i, 1).String()] = true
	}
	if !got["[1-2]"] || !got["[10-11]"] {
		t.Errorf("interval cells = %v", got)
	}
}

func TestAnonymizeCentroidValues(t *testing.T) {
	rows := [][]float64{{0}, {2}, {100}, {102}}
	tb := numTable(t, rows)
	anon, err := New().Anonymize(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[float64]int{}
	for i := 0; i < 4; i++ {
		vals[anon.Cell(i, 1).MustFloat()]++
	}
	if vals[1] != 2 || vals[101] != 2 {
		t.Errorf("centroids = %v, want {1:2, 101:2}", vals)
	}
}

func TestMDAVClustersNaturally(t *testing.T) {
	// Three well-separated clouds of 3 → with k=3 MDAV should recover them.
	rows := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{50, 50}, {50.1, 50}, {50, 50.1},
		{100, 0}, {100.1, 0}, {100, 0.1},
	}
	tb := numTable(t, rows)
	groups, err := New().Assign(tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	for _, g := range groups {
		base := g[0] / 3
		for _, i := range g {
			if i/3 != base {
				t.Errorf("group %v mixes clouds", g)
			}
		}
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tb := numTable(t, [][]float64{{1}, {2}, {3}})
	if _, err := New().Anonymize(tb, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := New().Anonymize(tb, 4); err == nil {
		t.Error("k > n accepted")
	}
	// No QI columns.
	empty := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "S", Class: dataset.Sensitive, Kind: dataset.Number}))
	empty.MustAppendRow(dataset.Num(1))
	empty.MustAppendRow(dataset.Num(2))
	if _, err := New().Anonymize(empty, 2); err == nil {
		t.Error("no-QI table accepted")
	}
	// Categorical QI.
	cat := dataset.New(dataset.MustSchema(
		dataset.Column{Name: "Q", Class: dataset.QuasiIdentifier, Kind: dataset.Text}))
	cat.MustAppendRow(dataset.Str("x"))
	cat.MustAppendRow(dataset.Str("y"))
	if _, err := New().Anonymize(cat, 2); err == nil {
		t.Error("categorical QI accepted")
	}
}

func TestAggregateValidation(t *testing.T) {
	tb := numTable(t, [][]float64{{1}, {2}, {3}})
	if _, err := Aggregate(tb, [][]int{{0, 1}}, false); err == nil {
		t.Error("uncovered row accepted")
	}
	if _, err := Aggregate(tb, [][]int{{0, 1}, {1, 2}}, false); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := Aggregate(tb, [][]int{{0, 1, 2}, {}}, false); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := Aggregate(tb, [][]int{{0, 1, 5}}, false); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestSSE(t *testing.T) {
	tb := numTable(t, [][]float64{{0}, {2}, {10}, {12}})
	// Groups {0,1} and {2,3}: centroids 1 and 11, SSE = 1+1+1+1 = 4.
	if got := SSE(tb, [][]int{{0, 1}, {2, 3}}); got != 4 {
		t.Errorf("SSE = %g, want 4", got)
	}
	// The natural grouping beats a crossed grouping.
	if good, bad := SSE(tb, [][]int{{0, 1}, {2, 3}}), SSE(tb, [][]int{{0, 2}, {1, 3}}); good >= bad {
		t.Errorf("natural SSE %g not better than crossed %g", good, bad)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 31)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64()}
	}
	tb := numTable(t, rows)
	a1, err := New().Anonymize(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New().Anonymize(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Error("MDAV not deterministic")
	}
}

func TestName(t *testing.T) {
	if New().Name() == "" {
		t.Error("empty name")
	}
}

// Property: for random tables and k, every MDAV group has size in [k, 2k−1]
// and the groups partition the rows.
func TestMDAVInvariantProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw)%5 + 2  // 2..6
		n := int(nRaw)%40 + k // k..k+39
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 100, rng.Float64()}
		}
		tb := numTable(nil, rows)
		groups, err := New().Assign(tb, k)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, g := range groups {
			if len(g) < k || len(g) > 2*k-1 {
				return false
			}
			for _, i := range g {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAggregateMatchesReference pins Aggregate's column writer to the
// SetCell-per-cell reference, centroid and interval mode, on groups mixing
// nulls, intervals, ±0, NaN and ±Inf cells, and on a text
// quasi-identifier, which both null out: the same cells, CSV bytes and
// fingerprint.
func TestAggregateMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	palette := []dataset.Value{
		dataset.Num(0), dataset.Num(negZero), dataset.Num(1.5), dataset.Num(-2), dataset.Num(1e308),
		dataset.Num(math.NaN()), dataset.Num(math.Inf(1)), dataset.Num(math.Inf(-1)),
		dataset.NullValue(), dataset.Span(1, 3), dataset.Span(negZero, 0),
	}
	schema := dataset.MustSchema(
		dataset.Column{Name: "id", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "a", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "t", Class: dataset.QuasiIdentifier, Kind: dataset.Text},
		dataset.Column{Name: "b", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "s", Class: dataset.Sensitive, Kind: dataset.Number},
	)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		tb := dataset.New(schema)
		n := 1 + rng.Intn(90)
		for i := 0; i < n; i++ {
			// Mostly finite numbers, so that many groups stay non-null.
			pick := func() dataset.Value {
				if rng.Intn(3) > 0 {
					return dataset.Num(float64(rng.Intn(5)) - 2)
				}
				return palette[rng.Intn(len(palette))]
			}
			tb.MustAppendRow(dataset.Str("r"), pick(), dataset.Str("x"), pick(), dataset.Num(float64(i)))
		}
		perm := rng.Perm(n)
		var groups [][]int
		for len(perm) > 0 {
			m := min(len(perm), 1+rng.Intn(4))
			groups, perm = append(groups, perm[:m]), perm[m:]
		}
		for _, asInterval := range []bool{false, true} {
			want, err := referenceAggregate(tb, groups, asInterval)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Aggregate(tb, groups, asInterval)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d interval=%v: release differs from the reference:\n%s\nwant\n%s", trial, asInterval, got, want)
			}
			var gb, wb bytes.Buffer
			if err := got.WriteFingerprint(&gb); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteFingerprint(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("trial %d interval=%v: fingerprints differ", trial, asInterval)
			}
		}
	}
}
