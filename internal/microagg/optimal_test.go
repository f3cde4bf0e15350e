package microagg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestOptimalUnivariateBeatsOrMatchesMDAV(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, 41)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100}
	}
	tb := numTable(t, rows)
	for _, k := range []int{2, 3, 5} {
		opt := &OptimalUnivariate{Column: "A"}
		og, err := opt.Assign(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		mg, err := New().Assign(tb, k)
		if err != nil {
			t.Fatal(err)
		}
		if o, m := SSE(tb, og), SSE(tb, mg); o > m+1e-9 {
			t.Errorf("k=%d: optimal SSE %g worse than MDAV %g", k, o, m)
		}
	}
}

func TestOptimalUnivariateGroupSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 29)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64()}
	}
	tb := numTable(t, rows)
	opt := &OptimalUnivariate{Column: "A"}
	groups, err := opt.Assign(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	var covered int
	for _, g := range groups {
		if len(g) < 4 || len(g) > 7 {
			t.Errorf("group size %d outside [4, 7]", len(g))
		}
		covered += len(g)
	}
	if covered != 29 {
		t.Errorf("covered %d of 29", covered)
	}
}

func TestOptimalUnivariateContiguity(t *testing.T) {
	// Groups must be contiguous runs of the sorted values: no group's range
	// may overlap another's interior.
	rows := [][]float64{{5}, {1}, {9}, {2}, {8}, {3}, {7}, {4}}
	tb := numTable(t, rows)
	opt := &OptimalUnivariate{Column: "A"}
	groups, err := opt.Assign(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi float64 }
	var spans []span
	for _, g := range groups {
		s := span{1e18, -1e18}
		for _, i := range g {
			v := tb.Cell(i, 1).MustFloat()
			if v < s.lo {
				s.lo = v
			}
			if v > s.hi {
				s.hi = v
			}
		}
		spans = append(spans, s)
	}
	for a := range spans {
		for b := range spans {
			if a == b {
				continue
			}
			if spans[a].lo < spans[b].hi && spans[b].lo < spans[a].hi {
				t.Errorf("groups %v and %v overlap", spans[a], spans[b])
			}
		}
	}
}

func TestOptimalUnivariateKnownOptimum(t *testing.T) {
	// Two tight pairs far apart: optimal SSE groups are the pairs.
	rows := [][]float64{{0}, {1}, {100}, {101}}
	tb := numTable(t, rows)
	opt := &OptimalUnivariate{Column: "A"}
	groups, err := opt.Assign(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if got := SSE(tb, groups); got != 1 { // 0.5²·2 per pair = 0.5; two pairs = 1
		t.Errorf("SSE = %g, want 1", got)
	}
}

func TestOptimalUnivariateErrors(t *testing.T) {
	tb := numTable(t, [][]float64{{1}, {2}, {3}})
	opt := &OptimalUnivariate{Column: "A"}
	if _, err := opt.Assign(tb, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := opt.Assign(tb, 4); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := (&OptimalUnivariate{}).Assign(tb, 2); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := (&OptimalUnivariate{Column: "Nope"}).Assign(tb, 2); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := (&OptimalUnivariate{Column: "Name"}).Assign(tb, 2); err == nil {
		t.Error("identifier column accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		rows := [][]float64{{1}, {2}, {bad}, {4}}
		_, err := opt.Assign(numTable(t, rows), 2)
		if err == nil || !strings.Contains(err.Error(), `quasi-identifier "A"`) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%v: err = %v, want a non-finite error naming column A", bad, err)
		}
	}
}

func TestOptimalUnivariateAnonymize(t *testing.T) {
	rows := [][]float64{{0}, {1}, {100}, {101}}
	tb := numTable(t, rows)
	opt := &OptimalUnivariate{Column: "A"}
	anon, err := opt.Anonymize(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[float64]int{}
	for i := 0; i < anon.NumRows(); i++ {
		vals[anon.Cell(i, 1).MustFloat()]++
	}
	if vals[0.5] != 2 || vals[100.5] != 2 {
		t.Errorf("centroids = %v", vals)
	}
	if opt.Name() == "" {
		t.Error("empty name")
	}
}

func TestVMDAVInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := make([][]float64, 37)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	tb := numTable(t, rows)
	for _, k := range []int{2, 3, 5} {
		groups, err := NewVMDAV().Assign(tb, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		covered := 0
		for _, g := range groups {
			if len(g) < k || len(g) > 2*k-1 {
				t.Errorf("k=%d: group size %d outside [k, 2k-1]", k, len(g))
			}
			covered += len(g)
		}
		if covered != len(rows) {
			t.Errorf("k=%d: covered %d of %d", k, covered, len(rows))
		}
	}
}

func TestVMDAVAnonymizeIsKAnonymous(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3}
	}
	tb := numTable(t, rows)
	anon, err := NewVMDAV().Anonymize(tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	qis := anon.Schema().IndicesOf(dataset.QuasiIdentifier)
	for _, g := range anon.GroupBy(qis) {
		if len(g) < 3 {
			t.Errorf("class of size %d", len(g))
		}
	}
	if NewVMDAV().Name() == "" {
		t.Error("empty name")
	}
}

func TestVMDAVExtensionHelpsOnClusteredData(t *testing.T) {
	// Clouds of 3 with k=2: fixed-size MDAV must split a cloud across
	// groups; V-MDAV can extend to swallow whole clouds.
	var rows [][]float64
	for c := 0; c < 4; c++ {
		base := float64(c * 100)
		rows = append(rows, []float64{base}, []float64{base + 0.5}, []float64{base + 1})
	}
	tb := numTable(t, rows)
	vg, err := NewVMDAV().Assign(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := New().Assign(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v, m := SSE(tb, vg), SSE(tb, mg); v > m+1e-9 {
		t.Errorf("V-MDAV SSE %g worse than MDAV %g on clustered data", v, m)
	}
}

func TestVMDAVErrors(t *testing.T) {
	tb := numTable(t, [][]float64{{1}, {2}, {3}})
	if _, err := NewVMDAV().Assign(tb, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewVMDAV().Assign(tb, 4); err == nil {
		t.Error("k>n accepted")
	}
	// A NaN gamma fails every comparison, so every candidate would join.
	for _, g := range []float64{-1, math.NaN()} {
		bad := NewVMDAV()
		bad.Gamma = g
		if _, err := bad.Assign(tb, 2); err == nil || !strings.Contains(err.Error(), "must be non-negative") {
			t.Errorf("gamma %g: err = %v, want the non-negative error", g, err)
		}
	}
}

// TestVMDAVInfiniteGamma: γ = +Inf, which extends every group as far as
// it can grow, matches the reference, with raw and standardized distances.
func TestVMDAVInfiniteGamma(t *testing.T) {
	var clouds [][]float64
	for _, base := range []float64{0, 100, 200} {
		for i := range 4 {
			clouds = append(clouds, []float64{base + float64(i)})
		}
	}
	for name, in := range map[string]*dataset.Table{
		"clouds":    numTable(t, clouds),
		"quantized": quantizedTable(t, 250, 41),
	} {
		for _, k := range []int{2, 3, 5} {
			for _, std := range []bool{true, false} {
				got, err := (&VMDAV{Opts: Options{Standardize: std}, Gamma: math.Inf(1)}).Assign(in, k)
				if err != nil {
					t.Fatalf("%s k=%d std=%v: %v", name, k, std, err)
				}
				if want := referenceVAssign(in, k, math.Inf(1), std); !groupsEqual(got, want) {
					t.Errorf("%s k=%d std=%v: groups diverge from reference:\ngot  %v\nwant %v", name, k, std, got, want)
				}
			}
		}
	}
}

// TestOptimalUnivariateHugeValues: finite values whose squares overflow,
// or whose squares stay finite but reach the DP's 1e308 sentinel (the last
// table), partition as the same values scaled by 2⁻⁶⁰⁰.
func TestOptimalUnivariateHugeValues(t *testing.T) {
	opt := &OptimalUnivariate{Column: "A"}
	for _, vals := range [][]float64{
		{1e200, 2e200, 3e200, 4e200},
		{1e160, 2e160, 3e160, 4e160, 5e160, 6e160},
		{-7.3e153, 0, 7.3e153},
	} {
		rows, scaled := make([][]float64, len(vals)), make([][]float64, len(vals))
		for i, v := range vals {
			rows[i], scaled[i] = []float64{v}, []float64{math.Ldexp(v, -600)}
		}
		got, err := opt.Assign(numTable(t, rows), 2)
		if err != nil {
			t.Fatalf("%g: %v", vals, err)
		}
		want, err := opt.Assign(numTable(t, scaled), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !groupsEqual(got, want) {
			t.Errorf("%g: groups %v, want those of the scaled table %v", vals, got, want)
		}
	}
}

// Property: the optimal univariate partition never has higher SSE than
// MDAV's on the same column.
func TestOptimalDominatesMDAVProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw)%3 + 2 // 2..4
		n := int(nRaw)%30 + 2*k
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 50}
		}
		tb := numTable(nil, rows)
		og, err1 := (&OptimalUnivariate{Column: "A"}).Assign(tb, k)
		mg, err2 := New().Assign(tb, k)
		if err1 != nil || err2 != nil {
			return false
		}
		return SSE(tb, og) <= SSE(tb, mg)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
