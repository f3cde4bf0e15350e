package fusion

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fuzzy"
	"repro/internal/stats"
)

// This file holds the row-at-a-time reference implementation of the fusion
// step: feature rows as [][]float64, one estimator loop per row, and the
// fuzzy systems run through the uncompiled fuzzy.System.Evaluate. It is the
// oracle the flat-matrix estimators are pinned to, bit for bit.

// rowsOf returns the row views of a flat matrix.
func rowsOf(m Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for r := range rows {
		rows[r] = m.Row(r)
	}
	return rows
}

// referenceColumn reads a column's numeric values with missing cells
// replaced by the mean of the observed ones.
func referenceColumn(t *dataset.Table, idx int) []float64 {
	vals, present := t.FloatColumn(idx)
	var sum float64
	var seen int
	for r, ok := range present {
		if ok {
			sum += vals[r]
			seen++
		}
	}
	mean := 0.0
	if seen > 0 {
		mean = sum / float64(seen)
	}
	for r, ok := range present {
		if !ok {
			vals[r] = mean
		}
	}
	return vals
}

// referenceFeatures assembles the feature rows: the release's numeric
// quasi-identifiers, then the aux table's, each mean-imputed.
func referenceFeatures(release, aux *dataset.Table) ([][]float64, []string, error) {
	if aux != nil && release.NumRows() != aux.NumRows() {
		return nil, nil, fmt.Errorf("release has %d rows, aux has %d", release.NumRows(), aux.NumRows())
	}
	var cols [][]float64
	var names []string
	add := func(t *dataset.Table, prefix string) {
		for _, i := range t.Schema().IndicesOf(dataset.QuasiIdentifier) {
			if t.Schema().Column(i).Kind == dataset.Number {
				cols = append(cols, referenceColumn(t, i))
				names = append(names, prefix+t.Schema().Column(i).Name)
			}
		}
	}
	add(release, "")
	if aux != nil {
		add(aux, "aux.")
	}
	if len(cols) == 0 {
		return nil, nil, ErrNoFeatures
	}
	features := make([][]float64, release.NumRows())
	for r := range features {
		features[r] = make([]float64, len(cols))
		for j := range cols {
			features[r][j] = cols[j][r]
		}
	}
	return features, names, nil
}

// referenceFuseWith is the fusion step on the reference path: features,
// estimates, clamp, and the release with the estimates in its sensitive
// column.
func referenceFuseWith(release, aux *dataset.Table, est Estimator, out Range) (*dataset.Table, error) {
	sens, err := sensitiveColumn(release)
	if err != nil {
		return nil, err
	}
	features, _, err := referenceFeatures(release, aux)
	if err != nil {
		return nil, err
	}
	vals, err := referenceEstimate(est, features, out)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		vals[i] = stats.Clamp(v, out.Lo, out.Hi)
	}
	return release.WithColumnFloats(sens, vals)
}

// referenceEstimate runs a built-in estimator row by row.
func referenceEstimate(est Estimator, features [][]float64, out Range) ([]float64, error) {
	if !out.valid() {
		return nil, errors.New("empty range")
	}
	n := len(features)
	res := make([]float64, n)
	switch e := est.(type) {
	case Midpoint:
		for i := range res {
			res[i] = out.Mid()
		}
	case Rank:
		if n == 0 {
			return nil, errors.New("no records")
		}
		d := len(features[0])
		scores := make([]float64, n)
		for j := 0; j < d; j++ {
			col := make([]float64, n)
			for i := range features {
				col[i] = features[i][j]
			}
			norm := stats.Normalize(col)
			for i := range scores {
				scores[i] += norm[i] / float64(d)
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := 1; i < n; i++ { // insertion sort on (score, index)
			for j := i; j > 0 && (scores[order[j]] < scores[order[j-1]] ||
				(scores[order[j]] == scores[order[j-1]] && order[j] < order[j-1])); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		if n == 1 {
			res[0] = out.Mid()
			break
		}
		for rank, idx := range order {
			res[idx] = out.Lo + float64(rank)/float64(n-1)*(out.Hi-out.Lo)
		}
	case *Ensemble:
		weights := e.Weights
		if weights == nil {
			weights = make([]float64, len(e.Members))
			for i := range weights {
				weights[i] = 1
			}
		}
		var totalW float64
		for _, w := range weights {
			totalW += w
		}
		for m, member := range e.Members {
			sub, err := referenceEstimate(member, features, out)
			if err != nil {
				return nil, err
			}
			for i, v := range sub {
				res[i] += weights[m] * v
			}
		}
		for i := range res {
			res[i] = stats.Clamp(res[i]/totalW, out.Lo, out.Hi)
		}
	case *Regression:
		model, err := stats.FitOLS(e.CalibFeatures, e.CalibTargets)
		if err != nil {
			return nil, err
		}
		for i, f := range features {
			res[i] = stats.Clamp(model.Predict(f), out.Lo, out.Hi)
		}
	case *KNN:
		kk := min(e.K, len(e.CalibFeatures))
		type cand struct {
			d, y float64
			i    int
		}
		for i, f := range features {
			cands := make([]cand, len(e.CalibFeatures))
			for c, cf := range e.CalibFeatures {
				var d float64
				for j := range f {
					diff := f[j] - cf[j]
					d += diff * diff
				}
				cands[c] = cand{d, e.CalibTargets[c], c}
			}
			// Selection of the kk nearest under the (distance, index) order.
			for s := 0; s < kk; s++ {
				best := s
				for j := s + 1; j < len(cands); j++ {
					if cands[j].d < cands[best].d || (cands[j].d == cands[best].d && cands[j].i < cands[best].i) {
						best = j
					}
				}
				cands[s], cands[best] = cands[best], cands[s]
			}
			var sum float64
			for s := 0; s < kk; s++ {
				sum += cands[s].y
			}
			res[i] = stats.Clamp(sum/float64(kk), out.Lo, out.Hi)
		}
	case *Fuzzy:
		if n == 0 {
			return nil, errors.New("no records")
		}
		sys, names, err := e.system(len(features[0]), out, func(j int) (float64, float64) {
			col := make([]float64, n)
			for i := range features {
				col[i] = features[i][j]
			}
			lo, hi, _ := stats.MinMax(col)
			return lo, hi
		})
		if err != nil {
			return nil, err
		}
		return evaluateRows(features, names, out, sys.Evaluate)
	case *FIS:
		return evaluateRows(features, e.FeatureNames, out, e.System.Evaluate)
	default:
		return nil, fmt.Errorf("no reference for estimator %s", est.Name())
	}
	return res, nil
}

// evaluateRows runs a fuzzy system on every feature row, mapping the
// no-rule-fired case to the range midpoint.
func evaluateRows(features [][]float64, names []string, out Range, eval func(map[string]float64) (float64, error)) ([]float64, error) {
	res := make([]float64, len(features))
	in := make(map[string]float64, len(names))
	for i, row := range features {
		for j, name := range names {
			in[name] = row[j]
		}
		y, err := eval(in)
		if errors.Is(err, fuzzy.ErrNoRuleFired) {
			y = out.Mid()
		} else if err != nil {
			return nil, err
		}
		res[i] = stats.Clamp(y, out.Lo, out.Hi)
	}
	return res, nil
}
