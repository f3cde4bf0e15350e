package microagg

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

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
