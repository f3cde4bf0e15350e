package fuzzy

import "fmt"

// Variable is a linguistic variable: a named crisp domain [Lo, Hi] carved
// into named fuzzy terms ("Low", "Med", "High" in Figure 2).
type Variable struct {
	Name   string
	Lo, Hi float64
	terms  map[string]MembershipFunc
	order  []string
}

// NewVariable creates a variable over [lo, hi].
func NewVariable(name string, lo, hi float64) (*Variable, error) {
	if name == "" {
		return nil, fmt.Errorf("fuzzy: variable needs a name")
	}
	if hi <= lo {
		return nil, fmt.Errorf("fuzzy: variable %q has empty domain [%g, %g]", name, lo, hi)
	}
	return &Variable{Name: name, Lo: lo, Hi: hi, terms: make(map[string]MembershipFunc)}, nil
}

// AddTerm attaches a named membership function. Term names are unique per
// variable.
func (v *Variable) AddTerm(name string, f MembershipFunc) error {
	if name == "" {
		return fmt.Errorf("fuzzy: variable %q: empty term name", v.Name)
	}
	if f == nil {
		return fmt.Errorf("fuzzy: variable %q term %q: nil membership function", v.Name, name)
	}
	if _, dup := v.terms[name]; dup {
		return fmt.Errorf("fuzzy: variable %q already has term %q", v.Name, name)
	}
	v.terms[name] = f
	v.order = append(v.order, name)
	return nil
}

// Term returns the membership function for a term name.
func (v *Variable) Term(name string) (MembershipFunc, error) {
	f, ok := v.terms[name]
	if !ok {
		return nil, fmt.Errorf("fuzzy: variable %q has no term %q", v.Name, name)
	}
	return f, nil
}

// Terms returns the term names in insertion order.
func (v *Variable) Terms() []string {
	out := make([]string, len(v.order))
	copy(out, v.order)
	return out
}

// Fuzzify returns the membership grade of x in every term.
func (v *Variable) Fuzzify(x float64) map[string]float64 {
	out := make(map[string]float64, len(v.terms))
	for name, f := range v.terms {
		out[name] = f.Grade(x)
	}
	return out
}

// ThreeTerms partitions the variable into the Low/Med/High shape of
// Figure 2: a left shoulder, a centered triangle and a right shoulder, with
// the crossovers at 1/3 and 2/3 of the domain.
func (v *Variable) ThreeTerms(low, med, high string) error {
	return v.UniformTerms([]string{low, med, high})
}

// UniformTerms partitions the domain into len(names) uniformly spaced terms:
// shoulders at the ends, triangles between, each peaking where its
// neighbours vanish (a standard Ruspini partition: grades sum to 1 inside
// the domain).
func (v *Variable) UniformTerms(names []string) error {
	n := len(names)
	if n < 2 {
		return fmt.Errorf("fuzzy: variable %q: need at least 2 terms, got %d", v.Name, n)
	}
	step := (v.Hi - v.Lo) / float64(n-1)
	for i, name := range names {
		peak := v.Lo + float64(i)*step
		var f MembershipFunc
		var err error
		switch i {
		case 0:
			f, err = LeftShoulder(peak, peak+step)
		case n - 1:
			f, err = RightShoulder(peak-step, peak)
		default:
			f, err = NewTriangular(peak-step, peak, peak+step)
		}
		if err != nil {
			return fmt.Errorf("fuzzy: variable %q term %q: %w", v.Name, name, err)
		}
		if err := v.AddTerm(name, f); err != nil {
			return err
		}
	}
	return nil
}
