package microagg

import (
	"strings"
	"testing"
)

// fuzzPalette is the value set FuzzKernelMatchesReference draws from: large
// and small magnitudes together make running sums round, a small set makes
// rows coincide, and ±1e308 make sums, and so the radial bound's anchor,
// overflow. New values go at the end, so encoded tables keep their values.
var fuzzPalette = [...]float64{0, 1, -1, 3, -3, 0.1, -0.1, 1e16, -1e16, 1e-16, 1e308, -1e308}

var fuzzGammas = [...]float64{0, 0.5, 1, 2}

// decodeFuzzTable reads a table and its parameters from data: n = 4..40
// rows of d = 1..3 columns, k = 2..4, standardization and γ from the first
// four bytes, then one palette index per cell (0 once data runs out).
func decodeFuzzTable(data []byte) (rows [][]float64, k int, std bool, gamma float64) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n, d := 4+int(at(0))%37, 1+int(at(1))%3
	k = 2 + int(at(2))%3
	std, gamma = at(3)&1 == 1, fuzzGammas[int(at(3)>>1)%len(fuzzGammas)]
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = fuzzPalette[int(at(4+i*d+j))%len(fuzzPalette)]
		}
	}
	return rows, k, std, gamma
}

// encodeFuzzTable is decodeFuzzTable's inverse for palette-valued rows, 4..40
// of them with 1..3 columns, at the settings TestSeedFallbackNearTies runs:
// k = 2, raw distances, γ = 1.
func encodeFuzzTable(rows [][]float64) []byte {
	data := []byte{byte(len(rows) - 4), byte(len(rows[0]) - 1), 0, 2 << 1}
	for _, r := range rows {
		for _, v := range r {
			for p, pv := range fuzzPalette {
				if v == pv {
					data = append(data, byte(p))
				}
			}
		}
	}
	return data
}

// FuzzKernelMatchesReference checks MDAV and V-MDAV on the tree kernel
// against the row-slice reference, group for group, on small palette
// tables where running sums drift and distances nearly tie: the inputs
// that decide whether a round's seed is certified or falls back. MDAV runs
// once fresh at the drawn k and from one prepared table at every k from 2
// to n, as a sweep's levels do. A table whose standardized points are not
// finite must be rejected. The near-tie tables of TestSeedFallbackNearTies
// seed the corpus.
func FuzzKernelMatchesReference(f *testing.F) {
	for _, rows := range nearTieTables {
		f.Add(encodeFuzzTable(rows))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, k, std, gamma := decodeFuzzTable(data)
		tbl := numTable(t, rows)
		got, err := (&Anonymizer{Opts: Options{Standardize: std}}).Assign(tbl, k)
		if err != nil {
			if !std || !strings.Contains(err.Error(), "non-finite") {
				t.Fatal(err)
			}
			return
		}
		if want := referenceAssign(tbl, k, std); !groupsEqual(got, want) {
			t.Fatalf("MDAV k=%d std=%v rows %v:\ngot  %v\nwant %v", k, std, rows, got, want)
		}
		p := prepare(tbl, std)
		for k := 2; k <= len(rows); k++ {
			kn, err := p.level(k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := kn.assign(k), referenceAssign(tbl, k, std); !groupsEqual(got, want) {
				t.Fatalf("prepared MDAV k=%d std=%v rows %v:\ngot  %v\nwant %v", k, std, rows, got, want)
			}
		}
		got, err = (&VMDAV{Opts: Options{Standardize: std}, Gamma: gamma}).Assign(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceVAssign(tbl, k, gamma, std); !groupsEqual(got, want) {
			t.Fatalf("V-MDAV k=%d γ=%g std=%v rows %v:\ngot  %v\nwant %v", k, gamma, std, rows, got, want)
		}
	})
}
