// Package hierarchy implements the numeric generalization hierarchy that
// k-anonymity by generalization [2] rewrites quasi-identifier values with:
// Ladder, which snaps numbers into intervals whose width doubles at each
// level (Age 28 → [25-30) → [20-40) → …), the interval scheme of the
// paper's Table III.
//
// Ladder satisfies Generalizer, keyed by a non-negative level where level 0
// is the ground (unmodified) value and MaxLevel() is the whole domain.
package hierarchy

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// Generalizer rewrites a cell to a coarser representation at a level in
// [0, MaxLevel()]. Level 0 returns the value unchanged; MaxLevel() returns
// the coarsest value.
type Generalizer interface {
	// GeneralizeValue returns the generalization of v at the given level.
	GeneralizeValue(v dataset.Value, level int) (dataset.Value, error)
	// MaxLevel returns the coarsest level.
	MaxLevel() int
}

// ErrLevel is returned for levels outside [0, MaxLevel()].
var ErrLevel = errors.New("hierarchy: level out of range")

// Ladder generalizes numbers into grid-aligned intervals whose width doubles
// per level: level 1 intervals have width Base, level 2 width 2·Base, level
// l width Base·2^(l−1). Level 0 is the exact value; MaxLevel generalizes to
// the full domain; MaxLevel+… is clamped out by validation.
type Ladder struct {
	Lo, Hi float64 // domain
	Base   float64 // width of level-1 intervals
	levels int
}

// NewLadder builds a ladder over [lo, hi] with level-1 width base. The
// number of levels is the smallest L with base·2^(L−1) ≥ hi−lo, plus the
// ground level.
func NewLadder(lo, hi, base float64) (*Ladder, error) {
	if hi <= lo {
		return nil, fmt.Errorf("hierarchy: ladder domain [%g, %g] is empty", lo, hi)
	}
	if base <= 0 {
		return nil, fmt.Errorf("hierarchy: ladder base width %g must be positive", base)
	}
	levels := 1
	for w := base; w < hi-lo; w *= 2 {
		levels++
	}
	return &Ladder{Lo: lo, Hi: hi, Base: base, levels: levels}, nil
}

// MaxLevel returns the coarsest level (the whole domain).
func (l *Ladder) MaxLevel() int { return l.levels }

// Width returns the interval width at a level ≥ 1.
func (l *Ladder) Width(level int) float64 {
	w := l.Base
	for i := 1; i < level; i++ {
		w *= 2
	}
	return w
}

// GeneralizeValue implements Generalizer for numeric cells. Interval inputs
// generalize by their midpoint's bucket widened to cover the input. Null
// stays Null.
func (l *Ladder) GeneralizeValue(v dataset.Value, level int) (dataset.Value, error) {
	if level < 0 || level > l.MaxLevel() {
		return dataset.Value{}, fmt.Errorf("%w: %d not in [0, %d]", ErrLevel, level, l.MaxLevel())
	}
	if v.IsNull() || level == 0 {
		return v, nil
	}
	lo, hi, ok := v.Bounds()
	if !ok {
		return dataset.Value{}, fmt.Errorf("hierarchy: ladder generalizes numeric cells, got %s", v.Kind())
	}
	if level == l.MaxLevel() {
		return dataset.Span(l.Lo, l.Hi), nil
	}
	w := l.Width(level)
	bucket := func(x float64) (float64, float64) {
		i := int((x - l.Lo) / w)
		if x < l.Lo {
			i = 0
		}
		blo := l.Lo + float64(i)*w
		bhi := blo + w
		if bhi > l.Hi {
			bhi = l.Hi
			if blo > l.Hi-w {
				blo = l.Hi - w
			}
			if blo < l.Lo {
				blo = l.Lo
			}
		}
		return blo, bhi
	}
	blo, _ := bucket(lo)
	_, bhi := bucket(hi)
	return dataset.Span(blo, bhi), nil
}
