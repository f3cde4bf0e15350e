package fuzzy

import (
	"errors"
	"fmt"
)

// System is a complete fuzzy inference system: input variables, one output
// variable and a rule base, mirroring the structure of the paper's Figure 2.
type System struct {
	inputs map[string]*Variable
	output *Variable
	rules  []Rule
}

// NewSystem creates a system with the given output variable.
func NewSystem(output *Variable) (*System, error) {
	if output == nil {
		return nil, errors.New("fuzzy: system needs an output variable")
	}
	if len(output.Terms()) == 0 {
		return nil, fmt.Errorf("fuzzy: output variable %q has no terms", output.Name)
	}
	return &System{
		inputs: make(map[string]*Variable),
		output: output,
	}, nil
}

// AddInput registers an input variable.
func (s *System) AddInput(v *Variable) error {
	if v == nil {
		return errors.New("fuzzy: nil input variable")
	}
	if v.Name == s.output.Name {
		return fmt.Errorf("fuzzy: input %q collides with the output variable", v.Name)
	}
	if _, dup := s.inputs[v.Name]; dup {
		return fmt.Errorf("fuzzy: duplicate input variable %q", v.Name)
	}
	if len(v.Terms()) == 0 {
		return fmt.Errorf("fuzzy: input variable %q has no terms", v.Name)
	}
	s.inputs[v.Name] = v
	return nil
}

// AddRule validates a rule against the registered variables and appends it.
func (s *System) AddRule(r Rule) error {
	if r.Antecedent == nil {
		return errors.New("fuzzy: rule has no antecedent")
	}
	if r.outputVar != "" && r.outputVar != s.output.Name {
		return fmt.Errorf("fuzzy: rule %q concludes on %q; system output is %q", r.Text, r.outputVar, s.output.Name)
	}
	if _, err := s.output.Term(r.OutputTerm); err != nil {
		return fmt.Errorf("fuzzy: rule %q: %w", r.Text, err)
	}
	used := make(map[string]bool)
	r.Antecedent.vars(used)
	for name := range used {
		v, ok := s.inputs[name]
		if !ok {
			return fmt.Errorf("fuzzy: rule %q references unknown input %q", r.Text, name)
		}
		// Validate referenced terms exist by walking the expression.
		if err := checkTerms(r.Antecedent, v); err != nil {
			return fmt.Errorf("fuzzy: rule %q: %w", r.Text, err)
		}
	}
	s.rules = append(s.rules, r)
	return nil
}

func checkTerms(e Expr, v *Variable) error {
	switch n := e.(type) {
	case cond:
		if n.variable == v.Name {
			if _, err := v.Term(n.term); err != nil {
				return err
			}
		}
	case notExpr:
		return checkTerms(n.inner, v)
	case andExpr:
		for _, k := range n.kids {
			if err := checkTerms(k, v); err != nil {
				return err
			}
		}
	case orExpr:
		for _, k := range n.kids {
			if err := checkTerms(k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddRuleText parses and adds one rule.
func (s *System) AddRuleText(text string) error {
	r, err := ParseRule(text)
	if err != nil {
		return err
	}
	return s.AddRule(r)
}

// Inputs returns the input variable names in no particular order.
func (s *System) Inputs() []string {
	out := make([]string, 0, len(s.inputs))
	for n := range s.inputs {
		out = append(out, n)
	}
	return out
}

// Output returns the output variable.
func (s *System) Output() *Variable { return s.output }

// ErrNoRuleFired is returned when every rule has zero firing strength, so
// the aggregated output surface is empty.
var ErrNoRuleFired = errors.New("fuzzy: no rule fired")

// Evaluate runs Mamdani inference: fuzzify inputs, fire every rule (min for
// AND, max for OR), clip its consequent at the firing strength, aggregate by
// max, and take the centroid. Inputs are crisp values keyed by variable name;
// every registered input must be present. It is the reference
// implementation: the compiled Evaluator's batch inference is pinned to its
// bits.
func (s *System) Evaluate(in map[string]float64) (float64, error) {
	if len(s.rules) == 0 {
		return 0, errors.New("fuzzy: system has no rules")
	}
	grades := make(map[string]map[string]float64, len(s.inputs))
	for name, v := range s.inputs {
		x, ok := in[name]
		if !ok {
			return 0, fmt.Errorf("fuzzy: missing input %q", name)
		}
		grades[name] = v.Fuzzify(x)
	}
	var fired aggregate
	for _, r := range s.rules {
		w := r.Antecedent.strength(grades) * r.Weight
		if w <= 0 {
			continue
		}
		base, err := s.output.Term(r.OutputTerm)
		if err != nil {
			return 0, err
		}
		fired = append(fired, clipped{base: base, cap: w})
	}
	if len(fired) == 0 {
		return 0, ErrNoRuleFired
	}
	return s.defuzzify(fired)
}

// resolution is the number of samples the centroid takes across the output
// domain.
const resolution = 201

// defuzzify returns the centroid of the surface over the output domain's
// samples lo + i·dx, i = 0..resolution−1.
func (s *System) defuzzify(surface MembershipFunc) (float64, error) {
	lo, hi := s.output.Lo, s.output.Hi
	dx := (hi - lo) / float64(resolution-1)
	xs := make([]float64, resolution)
	ys := make([]float64, resolution)
	var maxY float64
	var area float64
	for i := 0; i < resolution; i++ {
		x := lo + float64(i)*dx
		y := surface.Grade(x)
		xs[i], ys[i] = x, y
		if y > maxY {
			maxY = y
		}
		area += y
	}
	if maxY == 0 || area == 0 {
		return 0, ErrNoRuleFired
	}
	var num float64
	for i := range xs {
		num += xs[i] * ys[i]
	}
	return num / area, nil
}
