package fuzzy

import (
	"strings"
	"testing"
)

const sampleFIS = `
# Figure 2 style system.
OUTPUT income 40000 160000
TERM income low  trap -inf -inf 70000 100000
TERM income med  tri 70000 100000 130000
TERM income high trap 100000 130000 inf inf
INPUT valuation 0 10
TERM valuation low  trap -inf -inf 3 5
TERM valuation med  tri 3 5 7
TERM valuation high trap 5 7 inf inf
RULE IF valuation IS low THEN income IS low
RULE IF valuation IS med THEN income IS med
RULE IF valuation IS high THEN income IS high WEIGHT 0.9
`

func TestParseFIS(t *testing.T) {
	sys, err := ParseFIS(strings.NewReader(sampleFIS))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Output().Name != "income" {
		t.Errorf("output = %q", sys.Output().Name)
	}
	if got := sys.Inputs(); len(got) != 1 || got[0] != "valuation" {
		t.Errorf("inputs = %v", got)
	}
	if got := len(sys.rules); got != 3 {
		t.Errorf("rules = %d", got)
	}
	if w := sys.rules[2].Weight; w != 0.9 {
		t.Errorf("rule 3 weight = %g", w)
	}
	// The parsed system evaluates sensibly.
	lo, err := sys.Evaluate(map[string]float64{"valuation": 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sys.Evaluate(map[string]float64{"valuation": 9})
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("lo %g, hi %g", lo, hi)
	}
}

// TestParseFISShapes parses one term of every smooth and point shape and
// checks each grade for grade against the shape's own constructor.
func TestParseFISShapes(t *testing.T) {
	const src = `
OUTPUT y 0 10
TERM y g gauss 5 1.5
TERM y p singleton 7.7
TERM y s sigmoid 5 1.5
TERM y b bell 2 3 5
`
	sys, err := ParseFIS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussian(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSigmoid(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBell(2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]MembershipFunc{"g": g, "p": Singleton{X: 7.7}, "s": sg, "b": bl}
	if got := sys.Output().Terms(); len(got) != len(want) {
		t.Fatalf("terms = %v", got)
	}
	xs := []float64{7.7}
	for x := 0.0; x <= 10; x += 0.1 {
		xs = append(xs, x)
	}
	for name, f := range want {
		parsed, err := sys.Output().Term(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			if a, b := parsed.Grade(x), f.Grade(x); a != b {
				t.Fatalf("term %s at %g: parsed %g, constructed %g", name, x, a, b)
			}
		}
	}
}

func TestParseFISErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no output", "INPUT x 0 1\nTERM x a tri 0 0.5 1\n"},
		{"input before output", "INPUT x 0 1\nOUTPUT y 0 1\n"},
		{"double output", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nOUTPUT z 0 1\n"},
		{"bad bounds", "OUTPUT y zero one\n"},
		{"short output", "OUTPUT y 0\n"},
		{"term unknown var", "OUTPUT y 0 1\nTERM z a tri 0 0.5 1\n"},
		{"bad shape", "OUTPUT y 0 1\nTERM y a blob 1 2 3\n"},
		{"tri arity", "OUTPUT y 0 1\nTERM y a tri 1 2\n"},
		{"trap arity", "OUTPUT y 0 1\nTERM y a trap 1 2 3\n"},
		{"gauss arity", "OUTPUT y 0 1\nTERM y a gauss 1\n"},
		{"singleton arity", "OUTPUT y 0 1\nTERM y a singleton\n"},
		{"sigmoid arity", "OUTPUT y 0 1\nTERM y a sigmoid 1\n"},
		{"bell arity", "OUTPUT y 0 1\nTERM y a bell 1 2\n"},
		{"flat sigmoid", "OUTPUT y 0 1\nTERM y a sigmoid 0.5 0\n"},
		{"bad number", "OUTPUT y 0 1\nTERM y a tri 0 x 1\n"},
		{"unknown keyword", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nBOGUS\n"},
		{"duplicate var", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nINPUT y 0 1\n"},
		{"termless output", "OUTPUT y 0 1\n"},
		{"bad rule", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nRULE IF broken\n"},
		{"rule unknown input", "OUTPUT y 0 1\nTERM y a tri 0 0.5 1\nRULE IF x IS a THEN y IS a\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFIS(strings.NewReader(tc.src)); err == nil {
				t.Errorf("accepted:\n%s", tc.src)
			}
		})
	}
}
