package hierarchy

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestLadderBasics(t *testing.T) {
	l, err := NewLadder(0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// widths: 5, 10, 20, 40, 80, 160 ≥ 100 → levels 1..6, so MaxLevel 6.
	if l.MaxLevel() != 6 {
		t.Errorf("MaxLevel = %d, want 6", l.MaxLevel())
	}
	if l.Width(1) != 5 || l.Width(3) != 20 {
		t.Errorf("widths = %g, %g", l.Width(1), l.Width(3))
	}
}

func TestLadderGeneralize(t *testing.T) {
	l, err := NewLadder(0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		in    dataset.Value
		level int
		want  dataset.Value
	}{
		{dataset.Num(28), 0, dataset.Num(28)},
		{dataset.Num(28), 1, dataset.Span(25, 30)},
		{dataset.Num(28), 2, dataset.Span(20, 30)},
		{dataset.Num(28), 3, dataset.Span(20, 40)},
		{dataset.Num(0), 1, dataset.Span(0, 5)},
		{dataset.Num(100), 1, dataset.Span(95, 100)}, // top edge clamps
		{dataset.Num(28), 6, dataset.Span(0, 100)},   // max level = domain
		{dataset.Span(24, 31), 1, dataset.Span(20, 35)},
		{dataset.NullValue(), 2, dataset.NullValue()},
	}
	for _, tc := range tests {
		got, err := l.GeneralizeValue(tc.in, tc.level)
		if err != nil {
			t.Errorf("GeneralizeValue(%v, %d): %v", tc.in, tc.level, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("GeneralizeValue(%v, %d) = %v, want %v", tc.in, tc.level, got, tc.want)
		}
	}
}

func TestLadderValidation(t *testing.T) {
	if _, err := NewLadder(5, 5, 1); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewLadder(0, 10, 0); err == nil {
		t.Error("zero base accepted")
	}
	l, _ := NewLadder(0, 10, 1)
	if _, err := l.GeneralizeValue(dataset.Num(3), -1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := l.GeneralizeValue(dataset.Num(3), l.MaxLevel()+1); err == nil {
		t.Error("over-level accepted")
	}
	if _, err := l.GeneralizeValue(dataset.Str("x"), 1); err == nil {
		t.Error("text accepted by ladder")
	}
}

// Property: for in-domain values, the generalized interval always contains
// the input and its width grows monotonically with level.
func TestLadderContainmentProperty(t *testing.T) {
	l, err := NewLadder(0, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		x := float64(raw) / 65535 * 1000
		prevW := -1.0
		for level := 0; level <= l.MaxLevel(); level++ {
			g, err := l.GeneralizeValue(dataset.Num(x), level)
			if err != nil {
				return false
			}
			if !g.Contains(x) {
				return false
			}
			if g.Width() < prevW {
				return false
			}
			prevW = g.Width()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
