package fuzzy

import (
	"fmt"
	"math"
	"sort"
)

// Evaluator is the compiled form of a System for batch inference (batch.go)
// without the per-row allocations of System.Evaluate: fuzzified grades,
// firing strengths and the defuzzifier accumulators live in reused buffers,
// rules are precompiled to term indices, and the common membership shapes
// are devirtualized. Rules firing on the same output term are aggregated by
// their maximum strength up front — max_j min(g, w_j) = min(g, max_j w_j),
// so the Mamdani surface is unchanged and every result is bit-identical to
// System.Evaluate, which stays the reference.
//
// An Evaluator is not safe for concurrent use; give each goroutine its own
// Clone.
type Evaluator struct {
	sys    *System
	vars   []*Variable
	terms  [][]concreteMF // per input variable, in term order
	grades [][]float64    // reused: fuzzified grades, aligned with terms

	// gradesMap mirrors grades for rules with compound antecedents, which
	// evaluate through the generic Expr.strength path.
	gradesMap map[string]map[string]float64
	needMaps  bool

	rules    []compiledRule
	outTerms []concreteMF
	caps     []float64 // reused: max firing strength per output term

	// Batch-evaluation state (see batch.go): the flat-matrix column feeding
	// each input variable, the output-domain sample points, every output
	// term's grade there and the run table over them.
	varCol []int       // input variable index → feature column
	xs     []float64   // output-domain sample points
	otg    [][]float64 // per output term: grade at each sample point
	runs   []sampleRun // the samples, split where their nonzero terms change
}

// sampleRun is a maximal stretch xs[lo:hi] of output samples on which the
// same output terms, listed in terms in term order, have a nonzero grade (a
// NaN grade counts as nonzero). pair marks a run of exactly two terms whose
// grades are finite and > 0 at every sample of the run; centroidBatch
// evaluates those runs with both caps hoisted.
type sampleRun struct {
	lo, hi int
	terms  []int
	pair   bool
}

// compiledRule is one rule with its lookups resolved to indices.
type compiledRule struct {
	// simple antecedents ("x IS term") read their strength directly from the
	// grade buffers; compound ones fall back to Expr.strength.
	simple     bool
	varI, terI int
	expr       Expr
	weight     float64
	outI       int
}

// concreteMF is a devirtualized membership function: the common shapes are
// evaluated by a switch on kind with the exact arithmetic of their Grade
// methods; anything else falls back to the interface.
type concreteMF struct {
	kind       uint8
	a, b, c, d float64
	f          MembershipFunc
}

const (
	mfGeneric uint8 = iota
	mfTriangular
	mfTrapezoid
	mfGaussian
	mfSingleton
)

func makeConcrete(f MembershipFunc) concreteMF {
	switch m := f.(type) {
	case Triangular:
		return concreteMF{kind: mfTriangular, a: m.A, b: m.B, c: m.C}
	case Trapezoid:
		return concreteMF{kind: mfTrapezoid, a: m.A, b: m.B, c: m.C, d: m.D}
	case Gaussian:
		return concreteMF{kind: mfGaussian, a: m.Mean, b: m.Sigma}
	case Singleton:
		return concreteMF{kind: mfSingleton, a: m.X}
	default:
		return concreteMF{kind: mfGeneric, f: f}
	}
}

// grade mirrors the Grade methods of the concrete shapes bit for bit.
func (m *concreteMF) grade(x float64) float64 {
	switch m.kind {
	case mfTriangular:
		switch {
		case x <= m.a || x >= m.c:
			if x == m.b {
				return 1
			}
			return 0
		case x == m.b:
			return 1
		case x < m.b:
			return (x - m.a) / (m.b - m.a)
		default:
			return (m.c - x) / (m.c - m.b)
		}
	case mfTrapezoid:
		switch {
		case x < m.a || x > m.d:
			return 0
		case x >= m.b && x <= m.c:
			return 1
		case x < m.b:
			return (x - m.a) / (m.b - m.a)
		default:
			return (m.d - x) / (m.d - m.c)
		}
	case mfGaussian:
		d := (x - m.a) / m.b
		return math.Exp(-d * d / 2)
	case mfSingleton:
		if x == m.a {
			return 1
		}
		return 0
	default:
		return m.f.Grade(x)
	}
}

// NewEvaluator compiles the system's current rule base. Rules added to the
// system afterwards are not seen by the evaluator. It also samples the output
// domain once (see sample), and every Clone shares those tables.
func NewEvaluator(s *System) (*Evaluator, error) {
	e := &Evaluator{sys: s}
	names := make([]string, 0, len(s.inputs))
	for n := range s.inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	varIdx := make(map[string]int, len(names))
	termIdx := make([]map[string]int, len(names))
	for i, n := range names {
		v := s.inputs[n]
		varIdx[n] = i
		e.vars = append(e.vars, v)
		mfs := make([]concreteMF, len(v.order))
		ti := make(map[string]int, len(v.order))
		for j, term := range v.order {
			mfs[j] = makeConcrete(v.terms[term])
			ti[term] = j
		}
		termIdx[i] = ti
		e.terms = append(e.terms, mfs)
		e.grades = append(e.grades, make([]float64, len(mfs)))
	}
	outIdx := make(map[string]int, len(s.output.order))
	for j, term := range s.output.order {
		outIdx[term] = j
		e.outTerms = append(e.outTerms, makeConcrete(s.output.terms[term]))
	}
	e.caps = make([]float64, len(e.outTerms))
	for i := range s.rules {
		r := &s.rules[i]
		oi, ok := outIdx[r.OutputTerm]
		if !ok {
			return nil, fmt.Errorf("fuzzy: rule %q: output variable %q has no term %q", r.Text, s.output.Name, r.OutputTerm)
		}
		cr := compiledRule{expr: r.Antecedent, weight: r.Weight, outI: oi}
		if c, isCond := r.Antecedent.(cond); isCond {
			vi, okV := varIdx[c.variable]
			if !okV {
				return nil, fmt.Errorf("fuzzy: rule %q references unknown input %q", r.Text, c.variable)
			}
			ti, okT := termIdx[vi][c.term]
			if !okT {
				return nil, fmt.Errorf("fuzzy: rule %q: variable %q has no term %q", r.Text, c.variable, c.term)
			}
			cr.simple, cr.varI, cr.terI = true, vi, ti
		} else {
			e.needMaps = true
		}
		e.rules = append(e.rules, cr)
	}
	if e.needMaps {
		e.gradesMap = make(map[string]map[string]float64, len(e.vars))
		for i, v := range e.vars {
			e.gradesMap[v.Name] = make(map[string]float64, len(e.terms[i]))
		}
	}
	e.sample()
	return e, nil
}
