package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTriangular(t *testing.T) {
	tri, err := NewTriangular(0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {2.5, 0.5}, {5, 1}, {7.5, 0.5}, {10, 0}, {11, 0},
	}
	for _, tc := range tests {
		if got := tri.Grade(tc.x); !almost(got, tc.want, 1e-12) {
			t.Errorf("Grade(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestTriangularRightAngle(t *testing.T) {
	// Peak on the left foot: step down shape.
	tri, err := NewTriangular(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := tri.Grade(0); got != 1 {
		t.Errorf("Grade(0) = %g, want 1", got)
	}
	if got := tri.Grade(5); !almost(got, 0.5, 1e-12) {
		t.Errorf("Grade(5) = %g", got)
	}
}

func TestTriangularValidation(t *testing.T) {
	for _, tc := range [][3]float64{{5, 0, 10}, {0, 11, 10}, {3, 3, 3}} {
		if _, err := NewTriangular(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("NewTriangular(%v) accepted", tc)
		}
	}
}

func TestTrapezoid(t *testing.T) {
	tr, err := NewTrapezoid(0, 2, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {1, 0.5}, {2, 1}, {5, 1}, {8, 1}, {9, 0.5}, {10, 0}, {11, 0},
	}
	for _, tc := range tests {
		if got := tr.Grade(tc.x); !almost(got, tc.want, 1e-12) {
			t.Errorf("Grade(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if _, err := NewTrapezoid(0, 9, 8, 10); err == nil {
		t.Error("out-of-order trapezoid accepted")
	}
	if _, err := NewTrapezoid(4, 4, 4, 4); err == nil {
		t.Error("degenerate trapezoid accepted")
	}
}

func TestShoulders(t *testing.T) {
	low, err := LeftShoulder(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if low.Grade(0) != 1 || low.Grade(30) != 1 {
		t.Error("left shoulder should be 1 below its plateau end")
	}
	if !almost(low.Grade(45), 0.5, 1e-12) || low.Grade(60) != 0 || low.Grade(100) != 0 {
		t.Error("left shoulder ramp wrong")
	}
	high, err := RightShoulder(70, 100)
	if err != nil {
		t.Fatal(err)
	}
	if high.Grade(100) != 1 || high.Grade(1e9) != 1 || high.Grade(70) != 0 {
		t.Error("right shoulder wrong")
	}
	if !almost(high.Grade(85), 0.5, 1e-12) {
		t.Error("right shoulder ramp wrong")
	}
	if _, err := LeftShoulder(5, 5); err == nil {
		t.Error("flat left shoulder accepted")
	}
	if _, err := RightShoulder(9, 2); err == nil {
		t.Error("inverted right shoulder accepted")
	}
}

func TestGaussian(t *testing.T) {
	g, err := NewGaussian(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Grade(10) != 1 {
		t.Error("peak grade should be 1")
	}
	if got := g.Grade(12); !almost(got, math.Exp(-0.5), 1e-12) {
		t.Errorf("Grade(mean+sigma) = %g", got)
	}
	if !almost(g.Grade(8), g.Grade(12), 1e-12) {
		t.Error("gaussian should be symmetric")
	}
	if _, err := NewGaussian(0, 0); err == nil {
		t.Error("zero sigma accepted")
	}
}

func TestSingleton(t *testing.T) {
	s := Singleton{X: 5}
	if s.Grade(5) != 1 || s.Grade(5.0001) != 0 {
		t.Error("singleton wrong")
	}
}

func TestClippedAndAggregate(t *testing.T) {
	tri, _ := NewTriangular(0, 5, 10)
	clip := clipped{base: tri, cap: 0.4}
	if got := clip.Grade(5); got != 0.4 {
		t.Errorf("clipped peak = %g, want 0.4", got)
	}
	if got := clip.Grade(1); !almost(got, 0.2, 1e-12) {
		t.Errorf("clipped slope = %g, want 0.2", got)
	}
	agg := aggregate{clip, Singleton{X: 9}}
	if got := agg.Grade(9); got != 1 {
		t.Errorf("aggregate max = %g, want 1", got)
	}
	if got := agg.Grade(5); got != 0.4 {
		t.Errorf("aggregate = %g, want 0.4", got)
	}
}

func TestSigmoid(t *testing.T) {
	s, err := NewSigmoid(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Grade(5); !almost(got, 0.5, 1e-12) {
		t.Errorf("Grade(center) = %g", got)
	}
	if s.Grade(100) < 0.999 || s.Grade(-100) > 0.001 {
		t.Error("sigmoid tails wrong")
	}
	// Negative slope opens left.
	neg, err := NewSigmoid(5, -2)
	if err != nil {
		t.Fatal(err)
	}
	if neg.Grade(-100) < 0.999 || neg.Grade(100) > 0.001 {
		t.Error("negative-slope tails wrong")
	}
	if _, err := NewSigmoid(0, 0); err == nil {
		t.Error("zero slope accepted")
	}
}

func TestBell(t *testing.T) {
	b, err := NewBell(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Grade(6); got != 1 {
		t.Errorf("Grade(center) = %g", got)
	}
	// At center ± width the grade is exactly 0.5.
	if got := b.Grade(8); !almost(got, 0.5, 1e-12) {
		t.Errorf("Grade(center+width) = %g", got)
	}
	if !almost(b.Grade(4), b.Grade(8), 1e-12) {
		t.Error("bell should be symmetric")
	}
	if b.Grade(100) > 0.001 {
		t.Error("bell tail wrong")
	}
	if _, err := NewBell(0, 1, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewBell(1, 0, 0); err == nil {
		t.Error("zero slope accepted")
	}
}

// Property: every membership function stays within [0, 1] over a wide range.
func TestMembershipRangeProperty(t *testing.T) {
	tri, _ := NewTriangular(-5, 0, 5)
	trap, _ := NewTrapezoid(-10, -2, 2, 10)
	g, _ := NewGaussian(0, 3)
	low, _ := LeftShoulder(0, 1)
	high, _ := RightShoulder(0, 1)
	sg, _ := NewSigmoid(0, 2)
	bl, _ := NewBell(3, 2, 0)
	funcs := []MembershipFunc{tri, trap, g, low, high, Singleton{X: 0}, sg, bl}
	f := func(raw int16) bool {
		x := float64(raw) / 100
		for _, fn := range funcs {
			y := fn.Grade(x)
			if y < 0 || y > 1 || math.IsNaN(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
