package fuzzy

import (
	"errors"
	"fmt"
	"math"
)

// This file is the Evaluator's inference: whole-matrix evaluation over a flat
// row-major feature matrix, with no per-row map construction and no per-row
// allocations once warm. Every crisp result is bit-identical to
// System.Evaluate / System.EvaluateSugeno on the same row; rows where no rule
// fires (or the aggregated surface is empty) report NaN instead of
// ErrNoRuleFired, so one bad row does not abort the batch.

// Clone returns an evaluator sharing e's compiled, immutable state (system,
// variables, membership functions, rules, sample grades) with fresh mutable
// buffers, so each worker goroutine of a chunk-parallel batch can evaluate
// race-free. Cloning is much cheaper than NewEvaluator: no rule compilation,
// no output-term sampling.
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
	}
	c.grades = make([][]float64, len(e.grades))
	for i := range e.grades {
		c.grades[i] = make([]float64, len(e.grades[i]))
	}
	c.caps = make([]float64, len(e.caps))
	if e.otg != nil {
		c.surf = make([]float64, len(e.xs))
	}
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
			w = cr.expr.strength(e.gradesMap, e.sys.opts.Norms)
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

// ensureSamples precomputes, once per evaluator, the output-domain sample
// points and every output term's grade at each of them. The samples are the
// exact x = lo + i·dx values of System.defuzzify's sample loop, and grade()
// mirrors the term's Grade, so reading otg[oi][i] is bit-identical to
// evaluating the term at sample i.
func (e *Evaluator) ensureSamples() {
	if e.otg != nil {
		return
	}
	n := e.sys.opts.Resolution
	lo, hi := e.sys.output.Lo, e.sys.output.Hi
	dx := (hi - lo) / float64(n-1)
	e.xs = make([]float64, n)
	for i := range e.xs {
		e.xs[i] = lo + float64(i)*dx
	}
	e.otg = make([][]float64, len(e.outTerms))
	for oi := range e.outTerms {
		g := make([]float64, n)
		for i, x := range e.xs {
			g[i] = e.outTerms[oi].grade(x)
		}
		e.otg[oi] = g
	}
	e.surf = make([]float64, n)
}

// centroidBatch defuzzifies the current caps through the precomputed sample
// grades. The per-sample surface value is the max over fired terms of their
// clipped (or scaled) grade — the maximum System.Evaluate's aggregate takes
// over every fired rule, since clipping and scaling are monotone in the cap,
// visited terms-outer instead of rules-inner; max is exact and
// order-independent, so surf[i] carries the aggregate's bits at xs[i]. The
// closing maxY/area/num pass then accumulates in the same sample order as
// System.defuzzify. Returns NaN when the surface is empty.
func (e *Evaluator) centroidBatch() float64 {
	surf := e.surf
	for i := range surf {
		surf[i] = 0
	}
	prod := e.sys.opts.ProductImplication
	for oi := range e.caps {
		c := e.caps[oi]
		if c == 0 {
			continue
		}
		g := e.otg[oi]
		if prod {
			for i, gv := range g {
				if v := gv * c; v > surf[i] {
					surf[i] = v
				}
			}
		} else {
			for i, gv := range g {
				if gv > c {
					gv = c
				}
				if gv > surf[i] {
					surf[i] = gv
				}
			}
		}
	}
	var maxY, area, num float64
	xs := e.xs
	for i, y := range surf {
		if y > maxY {
			maxY = y
		}
		area += y
		num += xs[i] * y
	}
	if maxY == 0 || area == 0 {
		return math.NaN()
	}
	return num / area
}

// checkBatch validates the flat matrix shape shared by the batch entry
// points.
func checkBatch(flat []float64, stride, n int) error {
	if stride < 1 {
		return fmt.Errorf("fuzzy: batch stride must be ≥ 1, got %d", stride)
	}
	if len(flat) < n*stride {
		return fmt.Errorf("fuzzy: flat matrix has %d values, need %d rows × stride %d", len(flat), n, stride)
	}
	return nil
}

// EvaluateBatch runs Mamdani inference over len(out) rows of a flat
// row-major feature matrix: row r occupies flat[r*stride : r*stride+stride],
// and each input variable reads the column it was bound to (BindInputs), or
// its own index when unbound. out[r] receives exactly the bits
// System.Evaluate would produce for that row, with NaN marking rows where no
// rule fired.
//
// With the centroid defuzzifier (the default) the whole batch runs against
// precomputed output-term sample grades and allocates nothing once warm;
// other defuzzifiers build each row's surface and run System.defuzzify.
func (e *Evaluator) EvaluateBatch(flat []float64, stride int, out []float64) error {
	if len(e.rules) == 0 {
		return errors.New("fuzzy: system has no rules")
	}
	n := len(out)
	if n == 0 {
		return nil
	}
	if err := checkBatch(flat, stride, n); err != nil {
		return err
	}
	cols, err := e.batchCols(stride)
	if err != nil {
		return err
	}
	centroid := e.sys.opts.Defuzz == Centroid
	if centroid {
		e.ensureSamples()
	}
	for r := 0; r < n; r++ {
		row := flat[r*stride : r*stride+stride]
		if !e.fireRow(row, cols) {
			out[r] = math.NaN()
			continue
		}
		if centroid {
			out[r] = e.centroidBatch()
			continue
		}
		y, err := e.defuzzify()
		if err != nil {
			if errors.Is(err, ErrNoRuleFired) {
				out[r] = math.NaN()
				continue
			}
			return err
		}
		out[r] = y
	}
	return nil
}

// EvaluateBatchSugeno is the batch form of System.EvaluateSugeno over the
// same flat matrix layout as EvaluateBatch: the firing-strength-weighted
// average of the output singletons, accumulated in rule order, bit-identical
// per row. Rows firing no rule get NaN. Like System.EvaluateSugeno, output
// terms are only checked to be singletons when a rule firing on them
// actually fires.
func (e *Evaluator) EvaluateBatchSugeno(flat []float64, stride int, out []float64) error {
	if len(e.rules) == 0 {
		return errors.New("fuzzy: system has no rules")
	}
	n := len(out)
	if n == 0 {
		return nil
	}
	if err := checkBatch(flat, stride, n); err != nil {
		return err
	}
	cols, err := e.batchCols(stride)
	if err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		e.fuzzifyRow(flat[r*stride:r*stride+stride], cols)
		var num, den float64
		for i := range e.rules {
			cr := &e.rules[i]
			var w float64
			if cr.simple {
				w = e.grades[cr.varI][cr.terI]
			} else {
				w = cr.expr.strength(e.gradesMap, e.sys.opts.Norms)
			}
			w *= cr.weight
			if w <= 0 {
				continue
			}
			ot := &e.outTerms[cr.outI]
			if ot.kind != mfSingleton {
				return fmt.Errorf("fuzzy: Sugeno output term %q is not a singleton", e.sys.output.order[cr.outI])
			}
			num += w * ot.a
			den += w
		}
		if den == 0 {
			out[r] = math.NaN()
		} else {
			out[r] = num / den
		}
	}
	return nil
}
