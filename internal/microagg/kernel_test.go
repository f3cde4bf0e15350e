package microagg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// quantizedTable builds an n-row table of 3 numeric quasi-identifiers drawn
// from a small grid, so duplicate values (and therefore distance ties) are
// common — the cases where tie-break order matters.
func quantizedTable(tb testing.TB, n int, seed int64) *dataset.Table {
	tb.Helper()
	schema := dataset.MustSchema(
		dataset.Column{Name: "A", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "B", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "C", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
	)
	rng := rand.New(rand.NewSource(seed))
	t := dataset.New(schema)
	for i := 0; i < n; i++ {
		t.MustAppendRow(
			dataset.Num(float64(rng.Intn(12))),
			dataset.Num(float64(rng.Intn(12))),
			dataset.Num(float64(rng.Intn(8))/2),
		)
	}
	return t
}

func groupsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for i := range a[g] {
			if a[g][i] != b[g][i] {
				return false
			}
		}
	}
	return true
}

// TestKernelMatchesReference pins the tree kernel to the brute-force
// row-slice reference, for both standardized and raw distances: on
// tie-heavy grids at every worker budget, and at 10⁴ rows on the inputs
// pruning must survive — university cohorts, a tie-heavy grid, two
// distinct points, rows that coincide after outliers, heavy-tailed tables
// whose later centroids lie far from the radial bound's anchor, and raw
// rows whose first-round sums overflow, so the anchor is ±Inf.
func TestKernelMatchesReference(t *testing.T) {
	budgets := map[string]func() *parallel.Budget{
		"nil": func() *parallel.Budget { return nil },
		"w2":  func() *parallel.Budget { return parallel.NewBudget(2) },
		"w8":  func() *parallel.Budget { return parallel.NewBudget(8) },
	}
	for _, n := range []int{7, 40, 250, 1000} {
		for _, k := range []int{2, 3, 5, 16} {
			if n < k {
				continue
			}
			tbl := quantizedTable(t, n, int64(n*31+k))
			for _, std := range []bool{true, false} {
				want := referenceAssign(tbl, k, std)
				for bname, mk := range budgets {
					t.Run(fmt.Sprintf("n=%d/k=%d/std=%v/%s", n, k, std, bname), func(t *testing.T) {
						a := &Anonymizer{Opts: Options{Standardize: std}}
						got, err := a.AssignParallel(tbl, k, mk())
						if err != nil {
							t.Fatal(err)
						}
						if !groupsEqual(got, want) {
							t.Fatalf("kernel groups diverge from reference:\ngot  %v\nwant %v", got, want)
						}
					})
				}
			}
		}
	}

	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 11, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	twoPoints := make([][]float64, 2000)
	for i := range twoPoints {
		twoPoints[i] = []float64{float64(i % 2), 3}
	}
	// Raw distances between these overflow to +Inf, so most ties are
	// between infinities.
	rng := rand.New(rand.NewSource(3))
	huge := make([][]float64, 500)
	for i := range huge {
		huge[i] = []float64{(rng.Float64() - 0.5) * 1e300, float64(rng.Intn(4))}
	}
	// A quarter of column A sits near +1e308, so its row-order sum is
	// +Inf; standardizing would make it NaN, so this table runs raw only.
	infAnchor := drawRows(400, 2, 9, (*rand.Rand).NormFloat64)
	for i := 0; i < len(infAnchor); i += 4 {
		infAnchor[i][0] = 1e308 * (0.5 + float64(i)/1600)
	}
	finite := func(r float64) bool { return !math.IsInf(r, 1) }
	if kn, err := newTableKernel(numTable(t, infAnchor), 2, false); err != nil || finite(kn.anchor[0]) || slices.ContainsFunc(kn.rad, finite) {
		t.Fatalf("infinite-anchor table: err %v, want the anchor and every rad at +Inf", err)
	}
	expo := (*rand.Rand).ExpFloat64
	lognormal := func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }
	rawOnly := map[string]bool{"infinite-anchor": true}
	for _, c := range []struct {
		name string
		tbl  *dataset.Table
		ks   []int
	}{
		{"university", university, []int{2, 8, 16}},
		{"quantized", quantizedTable(t, 10000, 5), []int{8, 16}},
		{"two-points", numTable(t, twoPoints), []int{2, 8, 16}},
		{"coincide-after-outliers", numTable(t, outliersThenCoinciding(3, 60)), []int{2, 3, 5}},
		{"overflowing", numTable(t, huge), []int{2, 5}},
		{"exponential-d1", numTable(t, drawRows(3000, 1, 21, expo)), []int{2, 8}},
		{"exponential-d3", numTable(t, drawRows(5000, 3, 22, expo)), []int{2, 16}},
		{"lognormal-d2", numTable(t, drawRows(5000, 2, 23, lognormal)), []int{2, 16}},
		{"infinite-anchor", numTable(t, infAnchor), []int{2, 5}},
	} {
		for _, k := range c.ks {
			for _, std := range []bool{true, false} {
				if std && rawOnly[c.name] {
					continue
				}
				t.Run(fmt.Sprintf("%s/n=%d/k=%d/std=%v", c.name, c.tbl.NumRows(), k, std), func(t *testing.T) {
					t.Parallel()
					want := referenceAssign(c.tbl, k, std)
					got, err := (&Anonymizer{Opts: Options{Standardize: std}}).Assign(c.tbl, k)
					if err != nil {
						t.Fatal(err)
					}
					if !groupsEqual(got, want) {
						t.Fatal("kernel groups diverge from reference")
					}
				})
			}
		}
	}
}

// TestVMDAVMatchesReference pins V-MDAV on the tree kernel to the
// brute-force row-slice reference, group for group and row for row: on
// tie-heavy grids at several gammas, standardized and raw; on a 10⁴-row
// university cohort; on the coinciding-rows tables; and on raw rows near
// ±1e308, whose distances and group centroids overflow.
func TestVMDAVMatchesReference(t *testing.T) {
	type input struct {
		name   string
		tbl    *dataset.Table
		ks     []int
		gammas []float64
		stds   []bool
	}
	gammas := []float64{0, 0.5, 1, 2}
	both := []bool{true, false}
	var inputs []input
	for _, n := range []int{7, 40, 250, 1000} {
		inputs = append(inputs, input{fmt.Sprintf("quantized/n=%d", n), quantizedTable(t, n, int64(n*37)), []int{2, 3, 5}, gammas, both})
	}
	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 11, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"university/n=10000", university, []int{5}, []float64{1}, []bool{true}})
	for name, rows := range coincidingRows() {
		inputs = append(inputs, input{name, numTable(t, rows), []int{2, 3, 4}, gammas, both})
	}
	// A quarter of the rows sit near ±1e308: raw distances to them, and
	// gamma·distance at gamma 0, are +Inf and NaN.
	rng := rand.New(rand.NewSource(7))
	huge := make([][]float64, 300)
	for i := range huge {
		a := rng.NormFloat64()
		if rng.Intn(4) == 0 {
			a = float64(2*rng.Intn(2)-1) * 1e308 * (0.5 + rng.Float64()/2)
		}
		huge[i] = []float64{a, rng.Float64()}
	}
	inputs = append(inputs, input{"overflowing", numTable(t, huge), []int{2, 3, 5}, gammas, []bool{false}})

	for _, in := range inputs {
		for _, k := range in.ks {
			for _, gamma := range in.gammas {
				for _, std := range in.stds {
					t.Run(fmt.Sprintf("%s/k=%d/gamma=%g/std=%v", in.name, k, gamma, std), func(t *testing.T) {
						t.Parallel()
						want := referenceVAssign(in.tbl, k, gamma, std)
						got, err := (&VMDAV{Opts: Options{Standardize: std}, Gamma: gamma}).Assign(in.tbl, k)
						if err != nil {
							t.Fatal(err)
						}
						if !groupsEqual(got, want) {
							t.Fatalf("V-MDAV groups diverge from reference:\ngot  %v\nwant %v", got, want)
						}
					})
				}
			}
		}
	}
}

// drawRows returns n rows of d values drawn by draw from a source seeded
// with seed.
func drawRows(n, d int, seed int64, draw func(*rand.Rand) float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = draw(rng)
		}
	}
	return rows
}

// outliersThenCoinciding returns nOut distinct outlier rows followed by
// nSame rows at one point.
func outliersThenCoinciding(nOut, nSame int) [][]float64 {
	var rows [][]float64
	for i := 0; i < nOut; i++ {
		rows = append(rows, []float64{float64(100 * (i + 1)), float64(-40 * i)})
	}
	for i := 0; i < nSame; i++ {
		rows = append(rows, []float64{1, 2})
	}
	return rows
}

// coincidingRows returns a constant table, and rows that coincide after one
// outlier and after several.
func coincidingRows() map[string][][]float64 {
	constant := make([][]float64, 12)
	for i := range constant {
		constant[i] = []float64{5, 5}
	}
	return map[string][][]float64{
		"constant":         constant,
		"one-outlier":      outliersThenCoinciding(1, 20),
		"several-outliers": outliersThenCoinciding(4, 30),
	}
}

// TestKernelSeedOutsideRemaining covers a carve whose seed was carved
// before: the group still leads with the seed and takes its k−1 nearest
// rows from those left, and every unselected row stays in the tree. The
// geometry is forced directly through carve.
func TestKernelSeedOutsideRemaining(t *testing.T) {
	pts := []float64{0, 1, 2, 10, 11, 12}
	kn := newKernel(pts, 6, 1).clone(3)
	kn.take([]int{0, 1, 2})
	// Seed 0 is not among the remaining {3,4,5}: the group keeps the seed,
	// the tree keeps everything not selected.
	group := kn.carve(0, 3)
	if len(group) != 3 || group[0] != 0 || group[1] != 3 || group[2] != 4 {
		t.Fatalf("group = %v, want [0 3 4]", group)
	}
	if kn.nodes[0].live != 1 || kn.slot[5] < 0 {
		t.Fatalf("%d rows left, row 5 live %v; want only row 5", kn.nodes[0].live, kn.slot[5] >= 0)
	}
}

// TestAssignCoincidingRows: when the rows left in a round coincide, the
// round's second seed must still come from outside its first group. A
// constant table, and rows that coincide after outliers (one outlier, and
// several), must anonymize with every row in exactly one group of at
// least k rows.
func TestAssignCoincidingRows(t *testing.T) {
	for name, rows := range coincidingRows() {
		tb := numTable(t, rows)
		for _, k := range []int{2, 3, 4} {
			for _, std := range []bool{true, false} {
				a := &Anonymizer{Opts: Options{Standardize: std}}
				groups, err := a.Assign(tb, k)
				if err != nil {
					t.Fatalf("%s k=%d std=%v: %v", name, k, std, err)
				}
				seen := make([]int, len(rows))
				for _, g := range groups {
					if len(g) < k || len(g) > 2*k-1 {
						t.Errorf("%s k=%d std=%v: group %v sized outside [k, 2k−1]", name, k, std, g)
					}
					for _, i := range g {
						seen[i]++
					}
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("%s k=%d std=%v: row %d in %d groups: %v", name, k, std, i, c, groups)
					}
				}
				anon, err := a.Anonymize(tb, k)
				if err != nil {
					t.Fatalf("%s k=%d std=%v: %v", name, k, std, err)
				}
				for _, g := range anon.GroupBy(anon.Schema().IndicesOf(dataset.QuasiIdentifier)) {
					if len(g) < k {
						t.Errorf("%s k=%d std=%v: equivalence class of size %d", name, k, std, len(g))
					}
				}
			}
		}
	}
}

// TestAssignRejectsNonFinite: a NaN or ±Inf coordinate, in the data or
// produced by standardization overflowing, is an error naming the column,
// from MDAV and V-MDAV alike.
func TestAssignRejectsNonFinite(t *testing.T) {
	type scheme interface {
		Name() string
		Assign(*dataset.Table, int) ([][]int, error)
		Anonymize(*dataset.Table, int) (*dataset.Table, error)
	}
	schemes := func(std bool) []scheme {
		return []scheme{
			&Anonymizer{Opts: Options{Standardize: std}},
			&VMDAV{Opts: Options{Standardize: std}, Gamma: 1},
		}
	}
	for _, c := range []struct {
		name string
		bad  float64
		std  bool
	}{
		{"nan", math.NaN(), true},
		{"nan-raw", math.NaN(), false},
		{"inf", math.Inf(1), true},
		{"minus-inf-raw", math.Inf(-1), false},
		{"overflow", 1e308, true},
	} {
		rows := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
		rows[2][1] = c.bad
		if c.name == "overflow" {
			rows[1][1], rows[3][1] = c.bad, c.bad
		}
		for _, a := range schemes(c.std) {
			_, err := a.Assign(numTable(t, rows), 2)
			if err == nil || !strings.Contains(err.Error(), `quasi-identifier "B"`) || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s %s: err = %v, want a non-finite error naming column B", a.Name(), c.name, err)
			}
		}
	}
	// Finite coordinates whose distances overflow are ordered (+Inf ties
	// break by row) and stay allowed.
	huge := numTable(t, [][]float64{{-1e308}, {1e308}, {-1e308}, {1e308}})
	for _, a := range schemes(false) {
		if _, err := a.Anonymize(huge, 2); err != nil {
			t.Errorf("%s: raw coordinates with overflowing distances: %v", a.Name(), err)
		}
	}
}

// TestSeedCertificationRate pins how often a round's first seed is
// certified from the running sums: at most 1% of MDAV's rounds may fall
// back to the row-order re-sum, on a 10⁴-row university cohort and on the
// tie-heavy grid, at k = 2, 8 and 16. A round is one seed call; MDAV makes
// two groups per round, and the tail round one before the rest.
func TestSeedCertificationRate(t *testing.T) {
	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 11, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tbl  *dataset.Table
	}{
		{"university", university},
		{"quantized", quantizedTable(t, 10000, 5)},
	} {
		for _, k := range []int{2, 8, 16} {
			kn, err := newTableKernel(c.tbl, k, true)
			if err != nil {
				t.Fatal(err)
			}
			rounds := len(kn.assign(k)) / 2
			t.Logf("%s k=%d: %d of %d rounds fell back", c.name, k, kn.fallbacks, rounds)
			if 100*kn.fallbacks > rounds {
				t.Errorf("%s k=%d: %d of %d rounds fell back, want at most 1%%", c.name, k, kn.fallbacks, rounds)
			}
		}
	}
}

// nearTieTables are small raw tables, found by search, that mix ±1e16 with
// small values, so running sums drift from row-order ones and seed
// distances nearly tie. At k = 2 MDAV falls back on each. A zero bound on
// the centroid's drift certifies a wrong seed on tables 0 and 3; exempting
// rows at the best row's distance, rather than at its coordinates, does on
// table 1 under MDAV and on tables 2 and 3 under V-MDAV.
var nearTieTables = [][][]float64{
	{{-1}, {-1}, {-1e16}, {-3}, {3}, {-3}, {0.1}, {1e16}, {0.1}, {0.1}, {-3}, {1e-16}},
	{{-1}, {-1}, {0}, {-1e16}, {1e16}, {1e16}, {-1e16}, {-1}, {0}, {1}, {1e16}, {0}, {0}, {0}},
	{{0, -1e16}, {0.1, 1e16}, {1e16, 1}, {3, 3}, {0.1, -0.1}, {0.1, 3}, {-1, -1}},
	{{-1e16}, {0.1}, {-1e16}, {-0.1}, {-0.1}, {1e-16}, {-3}, {0.1}, {1}, {1e16}, {-3}, {3}, {1e-16}, {1e16}},
}

// TestSeedFallbackNearTies: on the near-tie tables, MDAV and V-MDAV (k = 2,
// γ = 1, raw distances) match the reference, and MDAV's rounds fall back,
// since the certificate cannot tell the seed from the running sums.
func TestSeedFallbackNearTies(t *testing.T) {
	for i, rows := range nearTieTables {
		tbl := numTable(t, rows)
		for _, scheme := range []string{"mdav", "v-mdav"} {
			kn, err := newTableKernel(tbl, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			var got, want [][]int
			if scheme == "mdav" {
				got, want = kn.assign(2), referenceAssign(tbl, 2, false)
			} else {
				got, want = kn.vassign(2, 1), referenceVAssign(tbl, 2, 1, false)
			}
			if !groupsEqual(got, want) {
				t.Errorf("table %d %s: kernel groups diverge from reference:\ngot  %v\nwant %v", i, scheme, got, want)
			}
			if scheme == "mdav" && kn.fallbacks == 0 {
				t.Errorf("table %d: no MDAV round fell back", i)
			}
		}
	}
}

// TestFarthestPruning pins how few distances the farthest-row queries
// compute once the radial bound prunes beside the boxes: on the seed-11
// 10⁴-row university cohort at k = 2, 8 and 16, at most 32 per round on
// average for the seed query and at most 64 for the query farthest from r.
// With boxes alone they computed about 940, 670 and 490 for the seed, and
// 335, 250 and 213 from r. The rounds are assign's, walked here so each
// query's count is read on its own.
func TestFarthestPruning(t *testing.T) {
	university, _, err := datagen.University(datagen.UniversityConfig{Seed: 11, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8, 16} {
		kn, err := newTableKernel(university, k, true)
		if err != nil {
			t.Fatal(err)
		}
		var rounds, seedDists, fromR int
		for kn.nodes[0].live >= int32(3*k) {
			before := kn.dists
			r := kn.seed()
			seedDists += kn.dists - before
			kn.carve(r, k)
			before = kn.dists
			s := kn.farthest(kn.row(r))
			fromR += kn.dists - before
			kn.carve(s, k)
			rounds++
		}
		t.Logf("k=%d: %d rounds, %.1f distances per seed query, %.1f per query from r",
			k, rounds, float64(seedDists)/float64(rounds), float64(fromR)/float64(rounds))
		if seedDists > 32*rounds || fromR > 64*rounds {
			t.Errorf("k=%d: %d and %d distances over %d rounds, want at most 32 and 64 per round",
				k, seedDists, fromR, rounds)
		}
	}
}
