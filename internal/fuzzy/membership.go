// Package fuzzy is a from-scratch fuzzy inference engine — the machinery the
// paper's adversary uses to fuse the anonymized release with web data
// (Section 3.A, Figure 2). It provides membership functions, linguistic
// variables, a textual rule language and Mamdani inference: min for AND,
// consequents clipped at the firing strength, max aggregation and a
// centroid defuzzifier.
//
// The engine replaces the Matlab Fuzzy Logic Toolbox the authors used.
package fuzzy

import (
	"errors"
	"fmt"
	"math"
)

// MembershipFunc maps a crisp value to a membership grade in [0, 1].
type MembershipFunc interface {
	// Grade returns the membership of x. Implementations must stay within
	// [0, 1] for all finite x.
	Grade(x float64) float64
}

// ErrShape is returned by membership constructors with out-of-order
// breakpoints.
var ErrShape = errors.New("fuzzy: membership breakpoints out of order")

// Triangular is the classic triangle with feet at A and C and peak at B.
type Triangular struct{ A, B, C float64 }

// NewTriangular validates A ≤ B ≤ C with A < C.
func NewTriangular(a, b, c float64) (Triangular, error) {
	if !(a <= b && b <= c) || a == c {
		return Triangular{}, fmt.Errorf("%w: triangular(%g, %g, %g)", ErrShape, a, b, c)
	}
	return Triangular{a, b, c}, nil
}

// Grade implements MembershipFunc.
func (t Triangular) Grade(x float64) float64 {
	switch {
	case x <= t.A || x >= t.C:
		// The peak may sit on a foot (right triangle); grade 1 there.
		if x == t.B {
			return 1
		}
		return 0
	case x == t.B:
		return 1
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		return (t.C - x) / (t.C - t.B)
	}
}

// Trapezoid has feet at A and D and a plateau from B to C. Infinite A or D
// produce open shoulders (see LeftShoulder and RightShoulder).
type Trapezoid struct{ A, B, C, D float64 }

// NewTrapezoid validates A ≤ B ≤ C ≤ D with A < D.
func NewTrapezoid(a, b, c, d float64) (Trapezoid, error) {
	if !(a <= b && b <= c && c <= d) || a == d {
		return Trapezoid{}, fmt.Errorf("%w: trapezoid(%g, %g, %g, %g)", ErrShape, a, b, c, d)
	}
	return Trapezoid{a, b, c, d}, nil
}

// LeftShoulder is fully on below b, ramping off to zero at c — the "Low"
// shape of Figure 2.
func LeftShoulder(b, c float64) (Trapezoid, error) {
	if b > c || b == c {
		return Trapezoid{}, fmt.Errorf("%w: left shoulder(%g, %g)", ErrShape, b, c)
	}
	return Trapezoid{math.Inf(-1), math.Inf(-1), b, c}, nil
}

// RightShoulder is zero below a, ramping to fully on at b and beyond — the
// "High" shape of Figure 2.
func RightShoulder(a, b float64) (Trapezoid, error) {
	if a > b || a == b {
		return Trapezoid{}, fmt.Errorf("%w: right shoulder(%g, %g)", ErrShape, a, b)
	}
	return Trapezoid{a, b, math.Inf(1), math.Inf(1)}, nil
}

// Grade implements MembershipFunc.
func (t Trapezoid) Grade(x float64) float64 {
	switch {
	case x < t.A || x > t.D:
		return 0
	case x >= t.B && x <= t.C:
		return 1
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		return (t.D - x) / (t.D - t.C)
	}
}

// Gaussian is exp(−(x−Mean)²/(2·Sigma²)).
type Gaussian struct{ Mean, Sigma float64 }

// NewGaussian validates Sigma > 0.
func NewGaussian(mean, sigma float64) (Gaussian, error) {
	if sigma <= 0 {
		return Gaussian{}, fmt.Errorf("fuzzy: gaussian sigma %g must be positive", sigma)
	}
	return Gaussian{mean, sigma}, nil
}

// Grade implements MembershipFunc.
func (g Gaussian) Grade(x float64) float64 {
	d := (x - g.Mean) / g.Sigma
	return math.Exp(-d * d / 2)
}

// Sigmoid is 1/(1+exp(−Slope·(x−Center))): an open ramp. Positive slopes
// open to the right ("high"-style), negative to the left.
type Sigmoid struct{ Center, Slope float64 }

// NewSigmoid validates Slope ≠ 0.
func NewSigmoid(center, slope float64) (Sigmoid, error) {
	if slope == 0 {
		return Sigmoid{}, errors.New("fuzzy: sigmoid slope must be non-zero")
	}
	return Sigmoid{center, slope}, nil
}

// Grade implements MembershipFunc.
func (s Sigmoid) Grade(x float64) float64 {
	return 1 / (1 + math.Exp(-s.Slope*(x-s.Center)))
}

// Bell is the generalized bell 1/(1+|((x−Center)/Width)|^(2·Slope)) — a
// smooth plateau shape between Gaussian and trapezoid.
type Bell struct{ Width, Slope, Center float64 }

// NewBell validates Width > 0 and Slope > 0.
func NewBell(width, slope, center float64) (Bell, error) {
	if width <= 0 {
		return Bell{}, fmt.Errorf("fuzzy: bell width %g must be positive", width)
	}
	if slope <= 0 {
		return Bell{}, fmt.Errorf("fuzzy: bell slope %g must be positive", slope)
	}
	return Bell{width, slope, center}, nil
}

// Grade implements MembershipFunc.
func (b Bell) Grade(x float64) float64 {
	return 1 / (1 + math.Pow(math.Abs((x-b.Center)/b.Width), 2*b.Slope))
}

// Singleton is 1 exactly at X and 0 elsewhere — used for crisp facts.
type Singleton struct{ X float64 }

// Grade implements MembershipFunc.
func (s Singleton) Grade(x float64) float64 {
	if x == s.X {
		return 1
	}
	return 0
}

// clipped caps a base function at a firing strength — the result of Mamdani
// implication.
type clipped struct {
	base MembershipFunc
	cap  float64
}

// Grade implements MembershipFunc.
func (c clipped) Grade(x float64) float64 {
	return math.Min(c.base.Grade(x), c.cap)
}

// aggregate is the pointwise maximum of several membership functions — the
// aggregated Mamdani output surface.
type aggregate []MembershipFunc

// Grade implements MembershipFunc.
func (a aggregate) Grade(x float64) float64 {
	var best float64
	for _, f := range a {
		if g := f.Grade(x); g > best {
			best = g
		}
	}
	return best
}
