package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind ValueKind
		str  string
	}{
		{"null", NullValue(), Null, "*"},
		{"zero value is null", Value{}, Null, "*"},
		{"number", Num(42), Number, "42"},
		{"negative number", Num(-3.5), Number, "-3.5"},
		{"text", Str("CEO, Deutsche Bank"), Text, "CEO, Deutsche Bank"},
		{"interval", Span(5, 10), Interval, "[5-10]"},
		{"degenerate interval", Span(7, 7), Interval, "[7-7]"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.v.Kind(); got != tc.kind {
				t.Errorf("Kind() = %v, want %v", got, tc.kind)
			}
			if got := tc.v.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
		})
	}
}

func TestSpanPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Span(10, 5) did not panic")
		}
	}()
	Span(10, 5)
}

func TestValueFloat(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want float64
		ok   bool
	}{
		{"number", Num(3), 3, true},
		{"interval midpoint", Span(5, 10), 7.5, true},
		{"null", NullValue(), 0, false},
		{"text", Str("x"), 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.v.Float()
			if ok != tc.ok || got != tc.want {
				t.Errorf("Float() = (%g, %v), want (%g, %v)", got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestMustFloatPanicsOnText(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFloat on text did not panic")
		}
	}()
	Str("x").MustFloat()
}

func TestValueBoundsAndWidth(t *testing.T) {
	if lo, hi, ok := Num(4).Bounds(); !ok || lo != 4 || hi != 4 {
		t.Errorf("Num bounds = (%g,%g,%v)", lo, hi, ok)
	}
	if lo, hi, ok := Span(1, 9).Bounds(); !ok || lo != 1 || hi != 9 {
		t.Errorf("Span bounds = (%g,%g,%v)", lo, hi, ok)
	}
	if _, _, ok := Str("a").Bounds(); ok {
		t.Error("text has bounds")
	}
	if w := Span(2, 5).Width(); w != 3 {
		t.Errorf("Width = %g, want 3", w)
	}
	if w := Num(2).Width(); w != 0 {
		t.Errorf("number Width = %g, want 0", w)
	}
}

func TestValueContains(t *testing.T) {
	v := Span(5, 10)
	for _, x := range []float64{5, 7.5, 10} {
		if !v.Contains(x) {
			t.Errorf("Span(5,10) should contain %g", x)
		}
	}
	for _, x := range []float64{4.999, 10.001} {
		if v.Contains(x) {
			t.Errorf("Span(5,10) should not contain %g", x)
		}
	}
	if NullValue().Contains(0) {
		t.Error("null contains nothing")
	}
	if Str("a").Contains(0) {
		t.Error("text contains nothing")
	}
	if !Num(3).Contains(3) {
		t.Error("number contains itself")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Num(1), Num(1), true},
		{Num(1), Num(2), false},
		{Num(math.NaN()), Num(math.NaN()), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Span(1, 2), Span(1, 2), true},
		{Span(1, 2), Span(1, 3), false},
		{NullValue(), NullValue(), true},
		{Num(1), Str("1"), false},
		{Num(1.5), Span(1, 2), false},
	}
	for _, tc := range tests {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	values := []Value{
		NullValue(),
		Num(0), Num(42), Num(-3.25), Num(98230),
		Str("Alice"), Str("CEO Microsoft"),
		Span(5, 10), Span(-3, -1), Span(0.5, 2.5), Span(40000, 160000),
	}
	for _, v := range values {
		got, err := ParseValue(v.String())
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", v.String(), err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %q → %v, want %v", v.String(), got, v)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, s := range []string{"[10-5]", "[abc]", "[1-2-junk"} {
		v, err := ParseValue(s)
		if err == nil && v.Kind() != Text {
			t.Errorf("ParseValue(%q) = %v, want error or text fallback", s, v)
		}
	}
	// A malformed interval that cannot parse should error, not silently
	// become text, when it has the bracket shape.
	if _, err := ParseValue("[10-5]"); err == nil {
		t.Error("ParseValue([10-5]) should reject inverted bounds")
	}
	if _, err := ParseValue("[x-y]"); err == nil {
		t.Error("ParseValue([x-y]) should reject non-numeric bounds")
	}
}

func TestParseValueWhitespaceAndEmpty(t *testing.T) {
	if v, err := ParseValue("   "); err != nil || !v.IsNull() {
		t.Errorf("blank parses to null, got %v, %v", v, err)
	}
	if v, err := ParseValue(" 42 "); err != nil || !v.Equal(Num(42)) {
		t.Errorf("padded number, got %v, %v", v, err)
	}
	if v, err := ParseValue("[ 1 - 2 ]"); err != nil || !v.Equal(Span(1, 2)) {
		t.Errorf("padded interval, got %v, %v", v, err)
	}
}

// Property: parse(render(v)) == v for finite numeric values.
func TestParseRenderNumericProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v, err := ParseValue(Num(x).String())
		return err == nil && v.Equal(Num(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
