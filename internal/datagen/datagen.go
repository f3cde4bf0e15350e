// Package datagen generates the reproduction's datasets.
//
// The paper's experiments use a private dataset — salary and performance
// review numbers of faculty at a public university — that was never
// published. University substitutes a deterministic synthetic cohort whose
// two essential correlations are explicit parameters:
//
//  1. performance reviews correlate with salary through a latent
//     seniority/merit variable (so the release leaks), and
//  2. web-visible attributes (job title, property holdings) correlate with
//     salary through the same latent variable (so fusion gains).
//
// Tables I and II reproduce the paper's worked examples verbatim.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/web"
)

// UniversityConfig parameterizes the synthetic faculty cohort.
type UniversityConfig struct {
	// Seed drives all randomness; same seed, same cohort.
	Seed int64
	// N is the number of faculty. The paper's cohort size is unstated; 40
	// reproduces its utility magnitudes. Defaults to 40.
	N int
	// SalaryLo and SalaryHi bound the salary range; the paper's Figure 2
	// uses [$40000, $160000]. Defaults apply when both are zero.
	SalaryLo, SalaryHi float64
	// ReviewNoise is the standard deviation of the noise added to each
	// review score (1–10 scale). Defaults to 0.8.
	ReviewNoise float64
	// SalaryNoise is the relative noise on salary around its latent value.
	// Defaults to 0.05.
	SalaryNoise float64
	// MeritWeight is the share of salary driven by internal merit — the
	// latent component visible in performance reviews but NOT on the web.
	// This is what makes the release quasi-identifiers worth protecting:
	// coarsening them destroys salary information the adversary cannot
	// recover from auxiliary data, which is why (P ∘ P̂) rises with k in
	// the paper's Figure 5. Defaults to 0.4; the remaining 0.6 is the
	// web-visible seniority component.
	MeritWeight float64
}

func (c *UniversityConfig) fill() {
	if c.N == 0 {
		c.N = 40
	}
	if c.SalaryLo == 0 && c.SalaryHi == 0 {
		c.SalaryLo, c.SalaryHi = 40000, 160000
	}
	if c.ReviewNoise == 0 {
		c.ReviewNoise = 0.5
	}
	if c.SalaryNoise == 0 {
		c.SalaryNoise = 0.05
	}
	if c.MeritWeight == 0 {
		c.MeritWeight = 0.4
	}
}

// UniversitySchema returns the faculty table schema: Name identifier, three
// 1–10 performance review indices as quasi-identifiers, Salary sensitive.
func UniversitySchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Teaching", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Research", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Service", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Salary", Class: dataset.Sensitive, Kind: dataset.Number},
	)
}

// University generates the private table P and the matching ground-truth
// web profiles (to feed web.BuildCorpus). Profiles use the academic ladder.
func University(cfg UniversityConfig) (*dataset.Table, []web.Profile, error) {
	cfg.fill()
	if cfg.N < 2 {
		return nil, nil, fmt.Errorf("datagen: university cohort needs N ≥ 2, got %d", cfg.N)
	}
	if cfg.SalaryHi <= cfg.SalaryLo {
		return nil, nil, fmt.Errorf("datagen: empty salary range [%g, %g]", cfg.SalaryLo, cfg.SalaryHi)
	}
	if cfg.ReviewNoise < 0 || cfg.SalaryNoise < 0 {
		return nil, nil, fmt.Errorf("datagen: negative noise")
	}
	if cfg.MeritWeight < 0 || cfg.MeritWeight > 1 {
		return nil, nil, fmt.Errorf("datagen: merit weight %g outside [0, 1]", cfg.MeritWeight)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Rows stream through the chunked builder: a million-row cohort
	// materializes into exact-size column buffers instead of growing them
	// geometrically.
	b := dataset.NewBuilder(UniversitySchema())
	profiles := make([]web.Profile, 0, cfg.N)
	names := personNames(rng, cfg.N)
	row := make([]dataset.Value, 5)
	w := cfg.MeritWeight
	for i := 0; i < cfg.N; i++ {
		// Two latent components: u is web-visible seniority (rank, property
		// holdings follow it); v is internal merit, visible only through the
		// released performance reviews. Salary mixes both, so the release's
		// quasi-identifiers carry information the web cannot replace.
		u := (float64(i) + 0.5) / float64(cfg.N)
		u = stats.Clamp(u+rng.NormFloat64()*0.06, 0.01, 0.99)
		v := stats.Clamp(rng.Float64(), 0.01, 0.99)
		latent := stats.Clamp((1-w)*u+w*v, 0.01, 0.99)

		review := func() float64 {
			// Reviews read the merit component (with a touch of seniority
			// halo) plus evaluation noise.
			r := 1 + 9*stats.Clamp(0.25*u+0.75*v, 0, 1) + rng.NormFloat64()*cfg.ReviewNoise
			return float64(int(stats.Clamp(r, 1, 10)*10+0.5)) / 10 // one decimal
		}
		salary := cfg.SalaryLo + latent*(cfg.SalaryHi-cfg.SalaryLo)
		salary *= 1 + rng.NormFloat64()*cfg.SalaryNoise
		salary = stats.Clamp(salary, cfg.SalaryLo, cfg.SalaryHi)
		salary = float64(int(salary)) // whole dollars

		row[0] = dataset.Str(names[i])
		row[1], row[2], row[3] = dataset.Num(review()), dataset.Num(review()), dataset.Num(review())
		row[4] = dataset.Num(salary)
		if err := b.AppendRow(row); err != nil {
			return nil, nil, err
		}
		// Web-visible ground truth shares the latent u: title rank and
		// property holdings both rise with merit/seniority.
		seniority := stats.Clamp(1+9*u+rng.NormFloat64()*0.7, 1, 10)
		property := stats.Clamp(500+u*5500*(1+rng.NormFloat64()*0.15), 200, 8000)
		profiles = append(profiles, web.Profile{
			Name:      names[i],
			Seniority: seniority,
			Property:  float64(int(property)),
			Ladder:    web.AcademicLadder,
			Employer:  "Penn State University",
		})
	}
	return b.Table(), profiles, nil
}

// FinancialConfig parameterizes a synthetic enterprise-customer table shaped
// like the paper's Table II, for scaling experiments beyond four rows.
type FinancialConfig struct {
	Seed               int64
	N                  int
	IncomeLo, IncomeHi float64
}

// Financial generates an N-customer enterprise table (Invst Vol/Amt,
// Valuation on a 1–10 scale; Income sensitive) plus corporate web profiles.
func Financial(cfg FinancialConfig) (*dataset.Table, []web.Profile, error) {
	if cfg.N < 2 {
		return nil, nil, fmt.Errorf("datagen: financial roster needs N ≥ 2, got %d", cfg.N)
	}
	if cfg.IncomeLo == 0 && cfg.IncomeHi == 0 {
		cfg.IncomeLo, cfg.IncomeHi = 40000, 100000
	}
	if cfg.IncomeHi <= cfg.IncomeLo {
		return nil, nil, fmt.Errorf("datagen: empty income range [%g, %g]", cfg.IncomeLo, cfg.IncomeHi)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := dataset.NewBuilder(TableIISchema())
	profiles := make([]web.Profile, 0, cfg.N)
	names := personNames(rng, cfg.N)
	row := make([]dataset.Value, 5)
	for i := 0; i < cfg.N; i++ {
		u := stats.Clamp((float64(i)+0.5)/float64(cfg.N)+rng.NormFloat64()*0.1, 0.01, 0.99)
		idx := func() float64 {
			return float64(int(stats.Clamp(1+9*u+rng.NormFloat64(), 1, 10) + 0.5))
		}
		income := cfg.IncomeLo + u*(cfg.IncomeHi-cfg.IncomeLo)*(1+rng.NormFloat64()*0.04)
		income = stats.Clamp(income, cfg.IncomeLo, cfg.IncomeHi)
		row[0] = dataset.Str(names[i])
		row[1], row[2], row[3] = dataset.Num(idx()), dataset.Num(idx()), dataset.Num(idx())
		row[4] = dataset.Num(float64(int(income)))
		if err := b.AppendRow(row); err != nil {
			return nil, nil, err
		}
		profiles = append(profiles, web.Profile{
			Name:      names[i],
			Seniority: stats.Clamp(1+9*u+rng.NormFloat64()*0.8, 1, 10),
			Property:  float64(int(stats.Clamp(500+u*5500*(1+rng.NormFloat64()*0.2), 200, 8000))),
			Ladder:    web.CorporateLadder,
		})
	}
	return b.Table(), profiles, nil
}

// TableISchema returns the schema of the paper's Table I.
func TableISchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "SSN", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "Zipcode", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Age", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Nationality", Class: dataset.QuasiIdentifier, Kind: dataset.Text},
		dataset.Column{Name: "Condition", Class: dataset.Sensitive, Kind: dataset.Text},
	)
}

// TableI returns the paper's Table I verbatim.
func TableI() *dataset.Table {
	t := dataset.New(TableISchema())
	t.MustAppendRow(dataset.Str("Alice"), dataset.Str("111-111-1111"), dataset.Num(13053), dataset.Num(28), dataset.Str("Russian"), dataset.Str("AIDS"))
	t.MustAppendRow(dataset.Str("Bob"), dataset.Str("222-222-2222"), dataset.Num(13068), dataset.Num(29), dataset.Str("American"), dataset.Str("Flu"))
	t.MustAppendRow(dataset.Str("Christine"), dataset.Str("333-333-3333"), dataset.Num(13068), dataset.Num(21), dataset.Str("Japanese"), dataset.Str("Cancer"))
	t.MustAppendRow(dataset.Str("Robert"), dataset.Str("444-444-4444"), dataset.Num(13053), dataset.Num(23), dataset.Str("American"), dataset.Str("Meningitis"))
	return t
}

// TableIISchema returns the schema of the paper's Table II.
func TableIISchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Column{Name: "Name", Class: dataset.Identifier, Kind: dataset.Text},
		dataset.Column{Name: "InvstVol", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "InvstAmt", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Valuation", Class: dataset.QuasiIdentifier, Kind: dataset.Number},
		dataset.Column{Name: "Income", Class: dataset.Sensitive, Kind: dataset.Number},
	)
}

// TableII returns the paper's Table II verbatim.
func TableII() *dataset.Table {
	t := dataset.New(TableIISchema())
	t.MustAppendRow(dataset.Str("Alice"), dataset.Num(8), dataset.Num(7), dataset.Num(4), dataset.Num(91250))
	t.MustAppendRow(dataset.Str("Bob"), dataset.Num(5), dataset.Num(4), dataset.Num(4), dataset.Num(74340))
	t.MustAppendRow(dataset.Str("Christine"), dataset.Num(4), dataset.Num(5), dataset.Num(5), dataset.Num(75123))
	t.MustAppendRow(dataset.Str("Robert"), dataset.Num(9), dataset.Num(8), dataset.Num(9), dataset.Num(98230))
	return t
}

// TableIIProfiles returns the web ground truth of the paper's Table IV:
// Alice (CEO, Deutsche Bank, 3560), Bob (Manager, Verizon, 1200), Christine
// (Assistant, NYU, 720), Robert (CEO, Microsoft, 5430).
func TableIIProfiles() []web.Profile {
	return []web.Profile{
		{Name: "Alice", Seniority: 10, Property: 3560, Employer: "Deutsche Bank", Ladder: web.CorporateLadder},
		{Name: "Bob", Seniority: 4, Property: 1200, Employer: "Verizon", Ladder: web.CorporateLadder},
		{Name: "Christine", Seniority: 1, Property: 720, Employer: "NYU", Ladder: web.CorporateLadder},
		{Name: "Robert", Seniority: 10, Property: 5430, Employer: "Microsoft", Ladder: web.CorporateLadder},
	}
}

var firstNames = []string{
	"Alice", "Bob", "Christine", "Robert", "David", "Emily", "Frank", "Grace",
	"Henry", "Irene", "James", "Karen", "Liam", "Maria", "Nathan", "Olivia",
	"Peter", "Quinn", "Rachel", "Samuel", "Teresa", "Ulysses", "Victoria",
	"Walter", "Xenia", "Yusuf", "Zoe", "Andrew", "Beatrice", "Carl",
}

var lastNames = []string{
	"Johnson", "Smith", "Lee", "Brown", "Garcia", "Miller", "Davis", "Wilson",
	"Anderson", "Taylor", "Thomas", "Moore", "Martin", "Jackson", "Thompson",
	"White", "Harris", "Clark", "Lewis", "Walker", "Hall", "Young", "King",
	"Wright", "Scott", "Green", "Baker", "Adams", "Nelson", "Carter",
}

// personNames returns n distinct full names, deterministic given the rng
// state. Uniqueness matters: identifiers key the whole attack.
func personNames(rng *rand.Rand, n int) []string {
	// The rejection loop below goes quadratic once n approaches the
	// first×last pool (900 combinations): every draw collides and the
	// counter suffixes creep up one map probe at a time. Large cohorts —
	// where every name would carry a suffix anyway — append a monotone
	// serial instead: unique by construction, O(n), still one rng draw per
	// name so cohorts stay deterministic given the seed. Small cohorts keep
	// the legacy path bit for bit (golden series and fixtures pin it).
	if n > 600 {
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("%s %s %d",
				firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))], i+2))
		}
		return out
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		for i := 2; seen[name]; i++ {
			name = fmt.Sprintf("%s %s %d", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))], i)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}
