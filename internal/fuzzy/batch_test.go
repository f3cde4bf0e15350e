package fuzzy

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// buildTestSystem assembles a 2-input Mamdani system with the generated
// Ruspini partitions the fusion layer uses.
func buildTestSystem(t *testing.T, opts Options, rules []string) *System {
	t.Helper()
	out, err := NewVariable("out", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ThreeTerms("low", "med", "high"); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(out, opts)
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

// TestEvaluateBatchMatchesEvaluate: batch results must carry the exact bits
// of the reference System.Evaluate across simple, compound and sparse rule
// bases, implications and defuzzifiers, with NaN standing in for
// ErrNoRuleFired.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
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
		for _, opts := range []Options{
			{},
			{ProductImplication: true},
			{Defuzz: Bisector},
			{Defuzz: MeanOfMaxima},
			{Norms: Norms{ProductAND: true}, Resolution: 101},
		} {
			sys := buildTestSystem(t, opts, rules)
			batch, err := NewEvaluator(sys)
			if err != nil {
				t.Fatalf("%s: NewEvaluator: %v", name, err)
			}
			flat, stride := batchGrid()
			n := len(flat) / stride
			out := make([]float64, n)
			if err := batch.EvaluateBatch(flat, stride, out); err != nil {
				t.Fatalf("%s: EvaluateBatch: %v", name, err)
			}
			in := map[string]float64{}
			for r := 0; r < n; r++ {
				in["a"], in["b"] = flat[r*stride], flat[r*stride+1]
				want, err := sys.Evaluate(in)
				if errors.Is(err, ErrNoRuleFired) {
					if !math.IsNaN(out[r]) {
						t.Fatalf("%s row %d: no rule fired but batch returned %v", name, r, out[r])
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s row %d: Evaluate: %v", name, r, err)
				}
				if math.Float64bits(out[r]) != math.Float64bits(want) {
					t.Fatalf("%s %+v row %d (%v): batch %v != evaluate %v", name, opts, r, in, out[r], want)
				}
			}
		}
	}
}

// TestEvaluateBatchBoundInputs: a matrix with permuted and surplus columns
// must evaluate identically once the variables are bound by name.
func TestEvaluateBatchBoundInputs(t *testing.T) {
	rules := []string{
		"IF a IS low THEN out IS low",
		"IF b IS high THEN out IS high",
		"IF a IS med AND b IS med THEN out IS med",
	}
	sys := buildTestSystem(t, Options{}, rules)
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

// TestEvaluateBatchSugenoMatchesSystem pins the batch Sugeno path to
// System.EvaluateSugeno bit for bit, including the no-rule NaN and the
// lazy non-singleton error.
func TestEvaluateBatchSugenoMatchesSystem(t *testing.T) {
	out, err := NewVariable("out", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		x    float64
	}{{"low", 10}, {"med", 50}, {"high", 90}} {
		if err := out.AddTerm(s.name, Singleton{X: s.x}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(out, Options{})
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
	for _, r := range []string{
		"IF a IS low THEN out IS low",
		"IF a IS high OR b IS high THEN out IS high",
		"IF a IS med AND b IS med THEN out IS med",
	} {
		if err := sys.AddRuleText(r); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatal(err)
	}
	flat, stride := batchGrid()
	n := len(flat) / stride
	got := make([]float64, n)
	if err := ev.EvaluateBatchSugeno(flat, stride, got); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want, err := sys.EvaluateSugeno(map[string]float64{"a": flat[r*stride], "b": flat[r*stride+1]})
		if errors.Is(err, ErrNoRuleFired) {
			if !math.IsNaN(got[r]) {
				t.Fatalf("row %d: no rule fired but batch returned %v", r, got[r])
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[r]) != math.Float64bits(want) {
			t.Fatalf("row %d: batch sugeno %v != system %v", r, got[r], want)
		}
	}

	// A non-singleton output term is only an error once a rule firing on it
	// fires, matching System.EvaluateSugeno's lazy check.
	mixed := buildTestSystem(t, Options{}, []string{"IF a IS low THEN out IS low"})
	mev, err := NewEvaluator(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := mev.EvaluateBatchSugeno([]float64{0, 0}, 2, make([]float64, 1)); err == nil ||
		!strings.Contains(err.Error(), "not a singleton") {
		t.Fatalf("want non-singleton error, got %v", err)
	}
	if err := mev.EvaluateBatchSugeno([]float64{10, 10}, 2, make([]float64, 1)); err != nil {
		t.Fatalf("unfired non-singleton term must not error, got %v", err)
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
	sys := buildTestSystem(t, Options{ProductImplication: true}, rules)
	ev, err := NewEvaluator(sys)
	if err != nil {
		t.Fatal(err)
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
	sys := buildTestSystem(t, Options{}, rules)
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
	sys, err := NewSystem(out, Options{})
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
