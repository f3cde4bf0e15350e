package datagen

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestUniversityShapeAndDeterminism(t *testing.T) {
	p1, prof1, err := University(UniversityConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if p1.NumRows() != 40 || len(prof1) != 40 {
		t.Fatalf("rows = %d, profiles = %d", p1.NumRows(), len(prof1))
	}
	p2, prof2, err := University(UniversityConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(p2) {
		t.Error("same seed, different tables")
	}
	for i := range prof1 {
		// Profiles embed a Ladder slice; compare the value fields.
		if prof1[i].Name != prof2[i].Name || prof1[i].Seniority != prof2[i].Seniority ||
			prof1[i].Property != prof2[i].Property {
			t.Fatalf("profile %d differs", i)
		}
	}
	p3, _, err := University(UniversityConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Equal(p3) {
		t.Error("different seeds, same table")
	}
}

func TestUniversityValueRanges(t *testing.T) {
	p, profiles, err := University(UniversityConfig{Seed: 7, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	sal := p.Schema().MustLookup("Salary")
	for i := 0; i < p.NumRows(); i++ {
		s := p.Cell(i, sal).MustFloat()
		if s < 40000 || s > 160000 {
			t.Errorf("salary %g out of range", s)
		}
		for _, c := range []string{"Teaching", "Research", "Service"} {
			v := p.Cell(i, p.Schema().MustLookup(c)).MustFloat()
			if v < 1 || v > 10 {
				t.Errorf("%s = %g out of [1,10]", c, v)
			}
		}
	}
	for _, pr := range profiles {
		if pr.Seniority < 1 || pr.Seniority > 10 {
			t.Errorf("seniority %g out of range", pr.Seniority)
		}
		if pr.Property < 200 || pr.Property > 8000 {
			t.Errorf("property %g out of range", pr.Property)
		}
	}
}

func TestUniversityCorrelations(t *testing.T) {
	// The two substitution-critical correlations: reviews ↔
	// salary and web attributes ↔ salary must be strongly positive.
	p, profiles, err := University(UniversityConfig{Seed: 11, N: 80})
	if err != nil {
		t.Fatal(err)
	}
	salaries := p.ColumnFloats(p.Schema().MustLookup("Salary"), 0)
	reviews := p.ColumnFloats(p.Schema().MustLookup("Research"), 0)
	property := make([]float64, len(profiles))
	seniority := make([]float64, len(profiles))
	for i, pr := range profiles {
		property[i] = pr.Property
		seniority[i] = pr.Seniority
	}
	for name, xs := range map[string][]float64{
		"reviews": reviews, "property": property, "seniority": seniority,
	} {
		r, err := stats.Correlation(xs, salaries)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0.6 {
			t.Errorf("correlation(%s, salary) = %.2f, want ≥ 0.6", name, r)
		}
	}
}

func TestUniversityUniqueNames(t *testing.T) {
	p, _, err := University(UniversityConfig{Seed: 3, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < p.NumRows(); i++ {
		n, _ := p.Cell(i, 0).Text()
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestUniversityValidation(t *testing.T) {
	if _, _, err := University(UniversityConfig{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, _, err := University(UniversityConfig{SalaryLo: 5, SalaryHi: 4}); err == nil {
		t.Error("inverted salary range accepted")
	}
	if _, _, err := University(UniversityConfig{ReviewNoise: -1}); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestFinancial(t *testing.T) {
	p, profiles, err := Financial(FinancialConfig{Seed: 5, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows() != 30 || len(profiles) != 30 {
		t.Fatalf("rows = %d, profiles = %d", p.NumRows(), len(profiles))
	}
	inc := p.Schema().MustLookup("Income")
	for i := 0; i < p.NumRows(); i++ {
		v := p.Cell(i, inc).MustFloat()
		if v < 40000 || v > 100000 {
			t.Errorf("income %g out of default range", v)
		}
	}
	if _, _, err := Financial(FinancialConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, _, err := Financial(FinancialConfig{N: 5, IncomeLo: 2, IncomeHi: 1}); err == nil {
		t.Error("inverted income range accepted")
	}
}

func TestTableIVerbatim(t *testing.T) {
	tb := TableI()
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if got, _ := tb.Cell(2, 0).Text(); got != "Christine" {
		t.Errorf("row 2 = %q", got)
	}
	if got, _ := tb.Cell(0, 5).Text(); got != "AIDS" {
		t.Errorf("Alice condition = %q", got)
	}
	if tb.Schema().Column(5).Class != dataset.Sensitive {
		t.Error("Condition should be sensitive")
	}
}

func TestTableIIVerbatim(t *testing.T) {
	tb := TableII()
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if got := tb.Cell(3, 4).MustFloat(); got != 98230 {
		t.Errorf("Robert income = %g", got)
	}
	profs := TableIIProfiles()
	if len(profs) != 4 || profs[3].Property != 5430 {
		t.Errorf("profiles = %+v", profs)
	}
	// Roster names line up between table and profiles.
	for i, pr := range profs {
		if got, _ := tb.Cell(i, 0).Text(); got != pr.Name {
			t.Errorf("row %d: table %q vs profile %q", i, got, pr.Name)
		}
	}
}
