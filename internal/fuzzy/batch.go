package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the Evaluator's inference: whole-matrix evaluation over a flat
// row-major feature matrix, with no per-row map construction and no per-row
// allocations once warm. Every crisp result is bit-identical to
// System.Evaluate on the same row; rows where no rule fires (or the
// aggregated surface is empty) report NaN instead of ErrNoRuleFired, so one
// bad row does not abort the batch.

// Clone returns an evaluator sharing e's compiled, immutable state (system,
// variables, membership functions, rules, output samples, sample grades and
// run table) with fresh mutable buffers, so each worker goroutine of a
// chunk-parallel batch can evaluate race-free. Cloning is much cheaper than
// NewEvaluator: no rule compilation, no output-term sampling.
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{
		sys:      e.sys,
		vars:     e.vars,
		terms:    e.terms,
		needMaps: e.needMaps,
		rules:    e.rules,
		outTerms: e.outTerms,
		varCol:   e.varCol,
		xs:       e.xs,
		otg:      e.otg,
		runs:     e.runs,
	}
	c.grades = make([][]float64, len(e.grades))
	for i := range e.grades {
		c.grades[i] = make([]float64, len(e.grades[i]))
	}
	c.caps = make([]float64, len(e.caps))
	if e.needMaps {
		c.gradesMap = make(map[string]map[string]float64, len(c.vars))
		for i, v := range c.vars {
			c.gradesMap[v.Name] = make(map[string]float64, len(c.terms[i]))
		}
	}
	return c
}

// BindInputs maps each input variable to its column in the flat feature
// matrix by feature name, for matrices whose column order differs from the
// evaluator's sorted-by-name variable order. Unbound evaluators use the
// identity mapping: column i feeds the i-th input variable.
func (e *Evaluator) BindInputs(names []string) error {
	cols := make([]int, len(e.vars))
	for vi, v := range e.vars {
		found := -1
		for j, n := range names {
			if n == v.Name {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("fuzzy: no feature column named %q for input variable", v.Name)
		}
		cols[vi] = found
	}
	e.varCol = cols
	return nil
}

// batchCols resolves (and caches) the column binding and validates it against
// the matrix stride.
func (e *Evaluator) batchCols(stride int) ([]int, error) {
	cols := e.varCol
	if cols == nil {
		cols = make([]int, len(e.vars))
		for i := range cols {
			cols[i] = i
		}
		e.varCol = cols
	}
	for vi, c := range cols {
		if c < 0 || c >= stride {
			return nil, fmt.Errorf("fuzzy: input %q bound to column %d, outside stride %d", e.vars[vi].Name, c, stride)
		}
	}
	return cols, nil
}

// fuzzifyRow fills the grade buffers (and, for compound rule bases, the grade
// maps) from one matrix row, exactly as System.Evaluate fuzzifies its input
// map.
func (e *Evaluator) fuzzifyRow(row []float64, cols []int) {
	for vi := range e.vars {
		x := row[cols[vi]]
		buf := e.grades[vi]
		terms := e.terms[vi]
		for ti := range terms {
			buf[ti] = terms[ti].grade(x)
		}
		if e.needMaps {
			m := e.gradesMap[e.vars[vi].Name]
			for ti, term := range e.vars[vi].order {
				m[term] = buf[ti]
			}
		}
	}
}

// fireRow fuzzifies one row and aggregates rule firing strengths into the
// caps buffer: the strongest firing per output term, which is all the
// aggregated surface of System.Evaluate depends on. It reports whether any
// rule fired.
func (e *Evaluator) fireRow(row []float64, cols []int) bool {
	e.fuzzifyRow(row, cols)
	for i := range e.caps {
		e.caps[i] = 0
	}
	fired := false
	for i := range e.rules {
		cr := &e.rules[i]
		var w float64
		if cr.simple {
			w = e.grades[cr.varI][cr.terI]
		} else {
			w = cr.expr.strength(e.gradesMap)
		}
		w *= cr.weight
		if w <= 0 {
			continue
		}
		fired = true
		if w > e.caps[cr.outI] {
			e.caps[cr.outI] = w
		}
	}
	return fired
}

// sample precomputes the output-domain sample points, every output term's
// grade at each of them, and the run table over them. The samples are the
// exact x = lo + i·dx values of System.defuzzify's sample loop, and grade()
// mirrors the term's Grade, so reading otg[oi][i] is bit-identical to
// evaluating the term at sample i.
func (e *Evaluator) sample() {
	lo, hi := e.sys.output.Lo, e.sys.output.Hi
	dx := (hi - lo) / float64(resolution-1)
	e.xs = make([]float64, resolution)
	for i := range e.xs {
		e.xs[i] = lo + float64(i)*dx
	}
	e.otg = make([][]float64, len(e.outTerms))
	for oi := range e.outTerms {
		g := make([]float64, resolution)
		for i, x := range e.xs {
			g[i] = e.outTerms[oi].grade(x)
		}
		e.otg[oi] = g
	}
	var set []int
	for i := range e.xs {
		set = set[:0]
		for oi, g := range e.otg {
			if g[i] != 0 {
				set = append(set, oi)
			}
		}
		if k := len(e.runs) - 1; k >= 0 && slices.Equal(e.runs[k].terms, set) {
			e.runs[k].hi = i + 1
			continue
		}
		e.runs = append(e.runs, sampleRun{lo: i, hi: i + 1, terms: slices.Clone(set)})
	}
	for k := range e.runs {
		r := &e.runs[k]
		r.pair = len(r.terms) == 2 &&
			finitePositive(e.otg[r.terms[0]][r.lo:r.hi]) &&
			finitePositive(e.otg[r.terms[1]][r.lo:r.hi])
	}
}

// finitePositive reports whether every grade in g is finite and > 0.
func finitePositive(g []float64) bool {
	for _, v := range g {
		if !(v > 0 && v <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// centroidBatch defuzzifies the current caps through the run table. The
// surface value y at a sample is the max, starting at +0 and rising only on
// a strict >, over the fired terms of their clipped grade: the value
// System.Evaluate's aggregate takes over every fired rule, since clipping is
// monotone in the cap. A term outside a run has a
// zero grade there, so it cannot raise y and the run's own terms suffice; an
// unfired term has cap +0 and cannot raise y either. A pair run's two
// grades are finite and > 0, so both candidates are ≥ +0 and never NaN, and
// their max needs no start value. Every y is ≥ +0, so an empty surface is
// area == 0, and area and num accumulate in System.defuzzify's sample order.
// Returns NaN when the surface is empty.
func (e *Evaluator) centroidBatch() float64 {
	caps, xs := e.caps, e.xs
	var area, num float64
	for k := range e.runs {
		r := &e.runs[k]
		if r.pair {
			x := xs[r.lo:r.hi]
			ga := e.otg[r.terms[0]][r.lo:r.hi]
			gb := e.otg[r.terms[1]][r.lo:r.hi]
			ga, gb = ga[:len(x)], gb[:len(x)] // one length: no bounds checks below
			ca, cb := caps[r.terms[0]], caps[r.terms[1]]
			for i, xi := range x {
				y, v := ga[i], gb[i]
				if y > ca {
					y = ca
				}
				if v > cb {
					v = cb
				}
				if v > y {
					y = v
				}
				area += y
				num += xi * y
			}
			continue
		}
		for i := r.lo; i < r.hi; i++ {
			var y float64
			for _, oi := range r.terms {
				g, c := e.otg[oi][i], caps[oi]
				if g > c {
					g = c
				}
				if g > y {
					y = g
				}
			}
			area += y
			num += xs[i] * y
		}
	}
	if area == 0 {
		return math.NaN()
	}
	return num / area
}

// EvaluateBatch runs Mamdani inference over len(out) rows of a flat
// row-major feature matrix: row r occupies flat[r*stride : r*stride+stride],
// and each input variable reads the column it was bound to (BindInputs), or
// its own index when unbound. out[r] receives exactly the bits
// System.Evaluate would produce for that row, with NaN marking rows where no
// rule fired. The whole batch runs against the evaluator's run table and
// allocates nothing once warm.
func (e *Evaluator) EvaluateBatch(flat []float64, stride int, out []float64) error {
	if len(e.rules) == 0 {
		return errors.New("fuzzy: system has no rules")
	}
	n := len(out)
	if n == 0 {
		return nil
	}
	if stride < 1 {
		return fmt.Errorf("fuzzy: batch stride must be ≥ 1, got %d", stride)
	}
	if len(flat) < n*stride {
		return fmt.Errorf("fuzzy: flat matrix has %d values, need %d rows × stride %d", len(flat), n, stride)
	}
	cols, err := e.batchCols(stride)
	if err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		if e.fireRow(flat[r*stride:r*stride+stride], cols) {
			out[r] = e.centroidBatch()
		} else {
			out[r] = math.NaN()
		}
	}
	return nil
}
