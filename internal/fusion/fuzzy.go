package fusion

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fuzzy"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// FuzzyOptions configures the automatically built Figure 2 system.
type FuzzyOptions struct {
	// Domains fixes the input variable ranges from domain knowledge, one
	// per feature — how the paper's Figure 2 defines its fuzzy sets ("Low
	// [500-1000], Med [1000-2500], High [2500-6000]"). When nil, domains
	// fall back to the observed feature ranges, which silently re-centers
	// the system at every anonymization level and masks the degradation
	// the paper reports; prefer fixed domains for attack studies.
	Domains []Range
}

// Fuzzy is the paper's estimator: a Mamdani system whose input variables
// split each feature's domain into Low/Med/High and whose rule base encodes
// the monotone domain knowledge "higher indicators → higher income", one
// rule per (feature, term) with uniform weights. Inference is the fuzzy
// package's: min-AND, clipped consequents, centroid defuzzification.
//
// With fixed Domains the system no longer depends on the input data, so the
// compiled evaluator is cached across calls and shared (via per-worker
// clones) by concurrent estimates; Opts must then not be mutated after the
// first call. Without Domains the system is rebuilt per call, because the
// observed feature ranges change with every anonymization level.
type Fuzzy struct {
	Opts FuzzyOptions

	mu       sync.Mutex
	compiled *compiledFuzzy
}

// NewFuzzy returns the estimator over the observed feature ranges, the
// service's configuration.
func NewFuzzy() *Fuzzy { return &Fuzzy{} }

// Name implements Estimator.
func (f *Fuzzy) Name() string { return "fuzzy" }

// compiledFuzzy is one fully built system with its compiled evaluator and a
// pool of clones for concurrent use. The proto evaluator itself never
// evaluates — it only seeds clones — so handing the same compiledFuzzy to
// many goroutines is race-free.
type compiledFuzzy struct {
	d     int
	out   Range
	proto *fuzzy.Evaluator
	pool  sync.Pool
}

func (cf *compiledFuzzy) get() *fuzzy.Evaluator {
	if ev, ok := cf.pool.Get().(*fuzzy.Evaluator); ok {
		return ev
	}
	return cf.proto.Clone()
}

func (cf *compiledFuzzy) put(ev *fuzzy.Evaluator) { cf.pool.Put(ev) }

// estimate evaluates the flat matrix chunk-parallel, one pooled evaluator
// clone per chunk, and writes one estimate per row into est: rows on which
// no rule fired (the batch NaN sentinel) fall back to the no-fusion range
// midpoint, and every estimate is clamped to the range.
func (cf *compiledFuzzy) estimate(m Matrix, out Range, b *parallel.Budget, est []float64) error {
	d := m.Stride
	var firstErr batchErr
	b.For(m.Rows, heavyRowGrain, func(lo, hi int) {
		ev := cf.get()
		firstErr.set(ev.EvaluateBatch(m.Flat[lo*d:hi*d], d, est[lo:hi]))
		cf.put(ev)
	})
	if err := firstErr.get(); err != nil {
		return err
	}
	mid := out.Mid()
	for i, v := range est {
		if v != v { // NaN: no rule fired on this row
			v = mid
		}
		est[i] = stats.Clamp(v, out.Lo, out.Hi)
	}
	return nil
}

// fuzzyTerms are the linguistic terms of every variable, as in Figure 2.
var fuzzyTerms = []string{"low", "med", "high"}

// system builds the Figure 2 system for d features: input variables x0..x(d−1)
// over domains from Opts.Domains or from obsRange, the observed feature
// ranges, and the rule base. It returns the input variable names in feature
// order.
func (f *Fuzzy) system(d int, out Range, obsRange func(j int) (float64, float64)) (*fuzzy.System, []string, error) {
	output, err := fuzzy.NewVariable("out", out.Lo, out.Hi)
	if err != nil {
		return nil, nil, err
	}
	if err := output.UniformTerms(fuzzyTerms); err != nil {
		return nil, nil, err
	}
	sys, err := fuzzy.NewSystem(output)
	if err != nil {
		return nil, nil, err
	}
	if f.Opts.Domains != nil && len(f.Opts.Domains) != d {
		return nil, nil, fmt.Errorf("fusion: %d domains for %d features", len(f.Opts.Domains), d)
	}
	names := make([]string, d)
	for j := 0; j < d; j++ {
		var lo, hi float64
		if f.Opts.Domains != nil {
			dom := f.Opts.Domains[j]
			if !dom.valid() {
				return nil, nil, fmt.Errorf("fusion: empty domain [%g, %g] for feature %d", dom.Lo, dom.Hi, j)
			}
			lo, hi = dom.Lo, dom.Hi
		} else {
			lo, hi = obsRange(j)
			if hi == lo {
				// Degenerate feature (fully generalized release at high k):
				// widen artificially so the variable stays valid; every
				// record then fires the middle terms equally.
				lo, hi = lo-0.5, hi+0.5
			}
		}
		names[j] = fmt.Sprintf("x%d", j)
		v, err := fuzzy.NewVariable(names[j], lo, hi)
		if err != nil {
			return nil, nil, err
		}
		if err := v.UniformTerms(fuzzyTerms); err != nil {
			return nil, nil, err
		}
		if err := sys.AddInput(v); err != nil {
			return nil, nil, err
		}
		// The paper's simplistic monotone knowledge rules, uniform weights:
		// IF xj IS term THEN out IS term.
		for _, t := range fuzzyTerms {
			if err := sys.AddRuleText(fmt.Sprintf("IF %s IS %s THEN out IS %s", names[j], t, t)); err != nil {
				return nil, nil, err
			}
		}
	}
	return sys, names, nil
}

// compile builds the system for d features and its evaluator, bound to the
// feature columns.
func (f *Fuzzy) compile(d int, out Range, obsRange func(j int) (float64, float64)) (*compiledFuzzy, error) {
	sys, names, err := f.system(d, out, obsRange)
	if err != nil {
		return nil, err
	}
	proto, err := fuzzy.NewEvaluator(sys)
	if err != nil {
		return nil, err
	}
	if err := proto.BindInputs(names); err != nil {
		return nil, err
	}
	return &compiledFuzzy{d: d, out: out, proto: proto}, nil
}

// compiledFor returns the compiled system for (d, out): the cached one when
// Opts.Domains pins the system independent of the data, a freshly built one
// otherwise.
func (f *Fuzzy) compiledFor(d int, out Range, obsRange func(j int) (float64, float64)) (*compiledFuzzy, error) {
	fixed := f.Opts.Domains != nil
	if fixed {
		f.mu.Lock()
		if cf := f.compiled; cf != nil && cf.d == d && cf.out == out {
			f.mu.Unlock()
			return cf, nil
		}
		f.mu.Unlock()
	}
	cf, err := f.compile(d, out, obsRange)
	if err != nil {
		return nil, err
	}
	if fixed {
		f.mu.Lock()
		// A concurrent call may have compiled the same system; keep one so
		// the clone pool is shared.
		if old := f.compiled; old != nil && old.d == d && old.out == out {
			cf = old
		} else {
			f.compiled = cf
		}
		f.mu.Unlock()
	}
	return cf, nil
}

// EstimateBatch implements Estimator. Without fixed domains the system is
// rebuilt per call, because the input variable domains come from the
// observed feature ranges (which change with the anonymization level,
// exactly as in the paper: coarser releases feed the same rule base worse
// inputs). The compiled system evaluates the flat matrix chunk-parallel
// through fuzzy.Evaluator.EvaluateBatch — no per-row input maps, no per-row
// allocations.
func (f *Fuzzy) EstimateBatch(m Matrix, out Range, b *parallel.Budget, _ *Arena, est []float64) error {
	if !out.valid() {
		return fmt.Errorf("fusion: empty range")
	}
	n := m.Rows
	if n == 0 {
		return errors.New("fusion: fuzzy estimator needs at least one record")
	}
	d := m.Stride
	if d == 0 {
		return ErrNoFeatures
	}
	cf, err := f.compiledFor(d, out, func(j int) (float64, float64) {
		// stats.MinMax over the strided column: first element, then strict
		// comparisons in row order — the same sequence as the extracted
		// column, so the observed domain carries identical bits.
		lo, hi := m.Flat[j], m.Flat[j]
		for i := 1; i < n; i++ {
			x := m.Flat[i*d+j]
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return lo, hi
	})
	if err != nil {
		return err
	}
	return cf.estimate(m, out, b, est)
}
