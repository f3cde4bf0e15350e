// Package dataset implements the relational table substrate used throughout
// the reproduction: typed cells, attribute classification (identifier /
// quasi-identifier / sensitive), schemas, tables and CSV round-trips.
//
// Tables model the paper's objects directly: the private data P, the
// anonymized release P', the web auxiliary data Q and the adversary's
// estimate P̂ are all dataset.Table values.
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates the concrete type held by a Value.
type ValueKind int

// The supported cell kinds. Interval cells represent generalized numeric
// values such as "[5-10]" in Table III of the paper; Null cells represent
// suppressed values ("*").
const (
	Null ValueKind = iota
	Number
	Text
	Interval
)

// String returns the kind name for diagnostics.
func (k ValueKind) String() string {
	switch k {
	case Null:
		return "null"
	case Number:
		return "number"
	case Text:
		return "text"
	case Interval:
		return "interval"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a single table cell. The zero Value is Null.
//
// Value is a small immutable struct passed by value; all constructors return
// Values, never pointers.
type Value struct {
	kind ValueKind
	num  float64
	str  string
	lo   float64
	hi   float64
}

// NullValue returns the suppressed cell ("*").
func NullValue() Value { return Value{} }

// Num returns a numeric cell.
func Num(v float64) Value { return Value{kind: Number, num: v} }

// Str returns a categorical/text cell.
func Str(s string) Value { return Value{kind: Text, str: s} }

// Span returns an interval cell [lo, hi]. It panics if lo > hi, which always
// indicates a programming error in an anonymizer.
func Span(lo, hi float64) Value {
	if lo > hi {
		panic(fmt.Sprintf("dataset: invalid interval [%g, %g]", lo, hi))
	}
	return Value{kind: Interval, lo: lo, hi: hi}
}

// Kind reports the cell kind.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether the cell is suppressed.
func (v Value) IsNull() bool { return v.kind == Null }

// Float returns the numeric content of the cell and whether it has one.
// Numbers return themselves; intervals return their midpoint, matching the
// adversary's convention of reading a generalized value as its center.
func (v Value) Float() (float64, bool) {
	switch v.kind {
	case Number:
		return v.num, true
	case Interval:
		return (v.lo + v.hi) / 2, true
	default:
		return 0, false
	}
}

// MustFloat is Float for cells known to be numeric; it panics otherwise.
func (v Value) MustFloat() float64 {
	f, ok := v.Float()
	if !ok {
		panic(fmt.Sprintf("dataset: MustFloat on %s cell", v.kind))
	}
	return f
}

// Text returns the string content and whether the cell is a text cell.
func (v Value) Text() (string, bool) {
	if v.kind == Text {
		return v.str, true
	}
	return "", false
}

// Bounds returns the interval bounds. Numbers are degenerate intervals
// [v, v]. The second result reports whether bounds are defined.
func (v Value) Bounds() (lo, hi float64, ok bool) {
	switch v.kind {
	case Number:
		return v.num, v.num, true
	case Interval:
		return v.lo, v.hi, true
	default:
		return 0, 0, false
	}
}

// Width returns hi−lo for cells with bounds and 0 otherwise. It is the
// generalization "coarseness" used by information-loss metrics.
func (v Value) Width() float64 {
	lo, hi, ok := v.Bounds()
	if !ok {
		return 0
	}
	return hi - lo
}

// Contains reports whether x lies inside the cell's bounds (inclusive).
// Null and text cells contain nothing.
func (v Value) Contains(x float64) bool {
	lo, hi, ok := v.Bounds()
	return ok && x >= lo && x <= hi
}

// Equal reports deep equality of two cells. Numeric comparison is exact;
// callers needing tolerance should compare Float results themselves.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Null:
		return true
	case Number:
		return v.num == w.num || (math.IsNaN(v.num) && math.IsNaN(w.num))
	case Text:
		return v.str == w.str
	case Interval:
		return v.lo == w.lo && v.hi == w.hi
	default:
		return false
	}
}

// String renders the cell the way the paper's tables do: numbers plainly,
// intervals as "[lo-hi]" and suppressed cells as "*".
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "*"
	case Number:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case Text:
		return v.str
	case Interval:
		return fmt.Sprintf("[%s-%s]",
			strconv.FormatFloat(v.lo, 'g', -1, 64),
			strconv.FormatFloat(v.hi, 'g', -1, 64))
	default:
		return "?"
	}
}

// ParseValue parses the String encoding back into a Value: "*" → Null,
// "[a-b]" → Span, a float literal → Num, anything else → Str.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "*" || s == "" {
		return NullValue(), nil
	}
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		body := s[1 : len(s)-1]
		// Split on the dash separating the bounds, honouring negative
		// numbers ("[-3--1]" means [-3, -1]).
		lo, hi, err := splitIntervalBody(body)
		if err != nil {
			return Value{}, fmt.Errorf("dataset: parse interval %q: %w", s, err)
		}
		if lo > hi {
			return Value{}, fmt.Errorf("dataset: parse interval %q: lower bound above upper", s)
		}
		return Span(lo, hi), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Num(f), nil
	}
	return Str(s), nil
}

func splitIntervalBody(body string) (lo, hi float64, err error) {
	// The separator is the first '-' that is not the leading sign of either
	// bound and not part of an exponent.
	for i := 1; i < len(body); i++ {
		if body[i] != '-' {
			continue
		}
		if body[i-1] == 'e' || body[i-1] == 'E' {
			continue // exponent sign
		}
		l, errL := strconv.ParseFloat(strings.TrimSpace(body[:i]), 64)
		h, errH := strconv.ParseFloat(strings.TrimSpace(body[i+1:]), 64)
		if errL == nil && errH == nil {
			return l, h, nil
		}
	}
	return 0, 0, fmt.Errorf("no valid bound separator in %q", body)
}
