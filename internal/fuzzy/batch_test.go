package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// buildTestSystem assembles a 2-input Mamdani system with the generated
// Ruspini partitions the fusion layer uses.
func buildTestSystem(t *testing.T, rules []string) *System {
	t.Helper()
	out, err := NewVariable("out", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		v, err := NewVariable(name, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ThreeTerms("low", "med", "high"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddInput(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rules {
		if err := sys.AddRuleText(r); err != nil {
			t.Fatalf("rule %q: %v", r, err)
		}
	}
	return sys
}

// batchGrid produces the flat row-major (a, b) feature matrix the batch
// entry points consume.
func batchGrid() ([]float64, int) {
	var flat []float64
	for ai := 0.0; ai <= 10; ai += 0.7 {
		for bi := 0.0; bi <= 10; bi += 1.3 {
			flat = append(flat, ai, bi)
		}
	}
	return flat, 2
}

// requireBatchMatches evaluates the rows of flat (one column per name, in
// names order) through a fresh evaluator's EvaluateBatch and through
// System.Evaluate, and fails on the first row whose bits differ, with NaN
// standing in for ErrNoRuleFired.
func requireBatchMatches(t *testing.T, label string, sys *System, names []string, flat []float64) {
	t.Helper()
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatalf("%s: NewEvaluator: %v", label, err)
	}
	if err := ev.BindInputs(names); err != nil {
		t.Fatalf("%s: BindInputs: %v", label, err)
	}
	stride := len(names)
	out := make([]float64, len(flat)/stride)
	if err := ev.EvaluateBatch(flat, stride, out); err != nil {
		t.Fatalf("%s: EvaluateBatch: %v", label, err)
	}
	in := make(map[string]float64, stride)
	for r := range out {
		row := flat[r*stride : r*stride+stride]
		for j, name := range names {
			in[name] = row[j]
		}
		want, err := sys.Evaluate(in)
		if errors.Is(err, ErrNoRuleFired) {
			if !math.IsNaN(out[r]) {
				t.Fatalf("%s row %d %v: no rule fired but batch returned %v", label, r, row, out[r])
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s row %d: Evaluate: %v", label, r, err)
		}
		if math.Float64bits(out[r]) != math.Float64bits(want) {
			t.Fatalf("%s row %d %v: batch %v != evaluate %v", label, r, row, out[r], want)
		}
	}
}

// tent is a test-only membership function that goes negative away from its
// peak: 1 − |x − c|/w.
type tent struct{ c, w float64 }

func (m tent) Grade(x float64) float64 { return 1 - math.Abs(x-m.c)/m.w }

// outputShapes builds the output variable shapes the batch centroid must
// match the reference on: uniform partitions (pair runs), Gaussians (three
// nonzero terms per sample), overlapping trapezoids, gapped triangles
// (empty runs) and tents with negative grades (pair runs that must not be
// hoisted, single-term runs below zero).
func outputShapes() map[string][]MembershipFunc {
	shapes := map[string][]MembershipFunc{
		"gaussian":   {Gaussian{0, 20}, Gaussian{50, 20}, Gaussian{100, 20}},
		"trapezoids": {Trapezoid{-10, 0, 30, 60}, Trapezoid{20, 40, 60, 80}, Trapezoid{40, 70, 100, 110}},
		"gapped":     {Triangular{0, 10, 25}, Triangular{40, 50, 60}, Triangular{75, 90, 100}},
		"negative":   {tent{25, 20}, tent{75, 20}},
	}
	for n := 2; n <= 5; n++ {
		v, _ := NewVariable("out", 0, 100)
		_ = v.UniformTerms(termNames(n))
		var mfs []MembershipFunc
		for _, name := range v.order {
			mfs = append(mfs, v.terms[name])
		}
		shapes[fmt.Sprintf("uniform%d", n)] = mfs
	}
	return shapes
}

// termNames returns the term names t0..t(n−1).
func termNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// monotoneSystem is the fusion estimator's shape: d inputs x0..x(d−1) over
// [0, 10], each split into as many uniform terms as the output has, and one
// rule "IF xj IS ti THEN out IS ti" per input and term.
func monotoneSystem(t *testing.T, out *Variable, d int) (*System, []string) {
	t.Helper()
	sys, err := NewSystem(out)
	if err != nil {
		t.Fatal(err)
	}
	terms := out.Terms()
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
		v, err := NewVariable(names[j], 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.UniformTerms(terms); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddInput(v); err != nil {
			t.Fatal(err)
		}
		for _, term := range terms {
			if err := sys.AddRuleText("IF " + names[j] + " IS " + term + " THEN out IS " + term); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys, names
}

// edgeRows returns d-column rows over the [0, 10] inputs of monotoneSystem
// with the given term count: first one row per special value (every column
// on an input term peak or crossover, outside the domain, NaN or ±Inf), then
// random mixes of special and uniform values.
func edgeRows(d, terms int) []float64 {
	special := []float64{-3, 13, math.NaN(), math.Inf(1), math.Inf(-1)}
	step := 10 / float64(terms-1)
	for i := 0; i < terms; i++ {
		special = append(special, float64(i)*step)
		if i+1 < terms {
			special = append(special, (float64(i)+0.5)*step)
		}
	}
	rng := rand.New(rand.NewSource(int64(10*d + terms)))
	var flat []float64
	for _, v := range special {
		for j := 0; j < d; j++ {
			flat = append(flat, v)
		}
	}
	for r := 0; r < 60; r++ {
		for j := 0; j < d; j++ {
			if rng.Intn(2) == 0 {
				flat = append(flat, special[rng.Intn(len(special))])
			} else {
				flat = append(flat, rng.Float64()*14-2)
			}
		}
	}
	return flat
}

// TestEvaluateBatchMatchesEvaluate: batch results must carry the exact bits
// of the reference System.Evaluate across simple, compound and sparse rule
// bases, and over every output shape of outputShapes at d = 1, 3 and 5
// inputs, with NaN standing in for ErrNoRuleFired.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	// The paper's three-term output splits into five runs, {low},
	// {low, med}, {med}, {med, high} and {high}, and the two-term ones are
	// hoisted.
	paper, err := NewEvaluator(buildTestSystem(t, []string{"IF a IS low THEN out IS low"}))
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := []sampleRun{
		{lo: 0, hi: 1, terms: []int{0}},
		{lo: 1, hi: 100, terms: []int{0, 1}, pair: true},
		{lo: 100, hi: 101, terms: []int{1}},
		{lo: 101, hi: 200, terms: []int{1, 2}, pair: true},
		{lo: 200, hi: 201, terms: []int{2}},
	}
	if !reflect.DeepEqual(paper.runs, wantRuns) {
		t.Fatalf("three-term output runs = %+v, want %+v", paper.runs, wantRuns)
	}

	ruleSets := map[string][]string{
		"simple": {
			"IF a IS low THEN out IS low",
			"IF a IS med THEN out IS med",
			"IF a IS high THEN out IS high",
			"IF b IS low THEN out IS low",
			"IF b IS high THEN out IS high",
		},
		"compound": {
			"IF a IS low AND b IS low THEN out IS low",
			"IF a IS high OR b IS high THEN out IS high",
			"IF NOT (a IS low) AND b IS med THEN out IS med",
		},
		"sparse": {
			"IF a IS low AND b IS high THEN out IS med",
		},
	}
	for name, rules := range ruleSets {
		flat, _ := batchGrid()
		requireBatchMatches(t, name, buildTestSystem(t, rules), []string{"a", "b"}, flat)
	}

	for shape, mfs := range outputShapes() {
		for _, d := range []int{1, 3, 5} {
			out, err := NewVariable("out", 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			for i, mf := range mfs {
				if err := out.AddTerm(fmt.Sprintf("t%d", i), mf); err != nil {
					t.Fatal(err)
				}
			}
			sys, names := monotoneSystem(t, out, d)
			requireBatchMatches(t, fmt.Sprintf("%s d=%d", shape, d), sys, names, edgeRows(d, len(mfs)))
		}
	}
}

// FuzzEvaluateBatchMatchesEvaluate: for any three inputs (NaN and ±Inf
// included), output term count and output bounds, EvaluateBatch must return
// exactly System.Evaluate's bits, and NaN where the reference reports
// ErrNoRuleFired.
func FuzzEvaluateBatchMatchesEvaluate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(2.5, 5.0, 7.5, uint8(1), 0.0, 100.0)
	f.Add(nan, inf, -inf, uint8(1), 40000.0, 160000.0)
	f.Add(-3.0, 13.0, 0.0, uint8(0), 0.0, 1.0)
	f.Add(1.25, 7.5, 10.0, uint8(3), -50.0, 50.0)
	f.Add(3.3, 6.6, 10.0, uint8(0), -inf, inf)
	f.Add(5.0, 5.0, 5.0, uint8(1), -1e308, 1e307)
	f.Fuzz(func(t *testing.T, x0, x1, x2 float64, terms uint8, lo, hi float64) {
		out, err := NewVariable("out", lo, hi)
		if err != nil {
			return
		}
		if err := out.UniformTerms(termNames(2 + int(terms)%4)); err != nil {
			return
		}
		sys, names := monotoneSystem(t, out, 3)
		requireBatchMatches(t, fmt.Sprintf("out [%g, %g]", lo, hi), sys, names, []float64{x0, x1, x2})
	})
}

// TestEvaluateBatchBoundInputs: a matrix with permuted and surplus columns
// must evaluate identically once the variables are bound by name.
func TestEvaluateBatchBoundInputs(t *testing.T) {
	rules := []string{
		"IF a IS low THEN out IS low",
		"IF b IS high THEN out IS high",
		"IF a IS med AND b IS med THEN out IS med",
	}
	sys := buildTestSystem(t, rules)
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.BindInputs([]string{"junk", "b", "a"}); err == nil {
		// "a" and "b" are both present, so this binding is legal.
	} else {
		t.Fatalf("BindInputs: %v", err)
	}
	flat := []float64{ // columns: junk, b, a
		99, 1, 2,
		-7, 8.5, 4,
		0, 3.25, 9,
	}
	out := make([]float64, 3)
	if err := ev.EvaluateBatch(flat, 3, out); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		want, err := sys.Evaluate(map[string]float64{"a": flat[r*3+2], "b": flat[r*3+1]})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[r]) != math.Float64bits(want) {
			t.Fatalf("row %d: bound batch %v != evaluate %v", r, out[r], want)
		}
	}
	if err := ev.BindInputs([]string{"a", "nope"}); err == nil {
		t.Fatal("BindInputs should fail when a variable's feature is missing")
	}
	if err := ev.BindInputs([]string{"junk", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := ev.EvaluateBatch(flat, 2, out); err == nil {
		t.Fatal("EvaluateBatch should reject a stride that cuts off a bound column")
	}
}

// TestEvaluatorClone: clones share compiled state but never buffers, so
// concurrent batch evaluation is race-free and bit-identical (run under
// -race in CI).
func TestEvaluatorClone(t *testing.T) {
	rules := []string{
		"IF a IS low AND b IS low THEN out IS low",
		"IF a IS high OR b IS high THEN out IS high",
		"IF a IS med THEN out IS med",
	}
	sys := buildTestSystem(t, rules)
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatal(err)
	}
	// A clone of an evaluator that never evaluated shares its output
	// samples, sample grades and run table instead of sampling again.
	if c := ev.Clone(); len(ev.runs) == 0 || &c.xs[0] != &ev.xs[0] || &c.otg[0][0] != &ev.otg[0][0] || &c.runs[0] != &ev.runs[0] {
		t.Fatal("clone does not share the proto's sample tables")
	}
	flat, stride := batchGrid()
	n := len(flat) / stride
	want := make([]float64, n)
	if err := ev.EvaluateBatch(flat, stride, want); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	outs := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		outs[w] = make([]float64, n)
		wg.Add(1)
		go func(c *Evaluator, out []float64) {
			defer wg.Done()
			if err := c.EvaluateBatch(flat, stride, out); err != nil {
				t.Error(err)
			}
		}(ev.Clone(), outs[w])
	}
	wg.Wait()
	for w := range outs {
		for r := range outs[w] {
			if math.Float64bits(outs[w][r]) != math.Float64bits(want[r]) {
				t.Fatalf("clone %d row %d: %v != %v", w, r, outs[w][r], want[r])
			}
		}
	}
}

// TestEvaluateBatchNoAllocs: the centroid batch path must allocate nothing
// once warm.
func TestEvaluateBatchNoAllocs(t *testing.T) {
	rules := []string{
		"IF a IS low THEN out IS low",
		"IF a IS high THEN out IS high",
		"IF b IS med THEN out IS med",
	}
	sys := buildTestSystem(t, rules)
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatal(err)
	}
	flat, stride := batchGrid()
	out := make([]float64, len(flat)/stride)
	if err := ev.EvaluateBatch(flat, stride, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ev.EvaluateBatch(flat, stride, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm EvaluateBatch allocates %g times per run, want 0", allocs)
	}
}

// BenchmarkEvaluateBatch measures batch Mamdani inference over a 3-input
// system.
func BenchmarkEvaluateBatch(b *testing.B) {
	out, err := NewVariable("out", 0, 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := out.ThreeTerms("low", "med", "high"); err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(out)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"x0", "x1", "x2"}
	for _, name := range names {
		v, err := NewVariable(name, 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := v.ThreeTerms("low", "med", "high"); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddInput(v); err != nil {
			b.Fatal(err)
		}
		for _, term := range []string{"low", "med", "high"} {
			if err := sys.AddRuleText("IF " + name + " IS " + term + " THEN out IS " + term); err != nil {
				b.Fatal(err)
			}
		}
	}
	ev, err := NewEvaluator(sys)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 1024
	flat := make([]float64, rows*len(names))
	for i := range flat {
		flat[i] = float64(i%97) / 9.7
	}
	res := make([]float64, rows)
	if err := ev.EvaluateBatch(flat, len(names), res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateBatch(flat, len(names), res); err != nil {
			b.Fatal(err)
		}
	}
}
