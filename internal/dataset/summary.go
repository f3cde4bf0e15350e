package dataset

import (
	"fmt"
	"math"
	"strings"
)

// ColumnSummary describes one column's contents for CLI display and sanity
// checks before anonymization.
type ColumnSummary struct {
	Name  string
	Class AttrClass
	Kind  ValueKind
	// Nulls counts suppressed cells.
	Nulls int
	// Distinct counts distinct rendered values.
	Distinct int
	// Min, Max and Mean summarize numeric readings (interval midpoints);
	// they are zero when the column has no numeric cells.
	Min, Max, Mean float64
	// Generalized counts interval cells — non-zero only after anonymization.
	Generalized int
}

// Summarize computes per-column summaries.
func Summarize(t *Table) []ColumnSummary {
	out := make([]ColumnSummary, t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		col := t.Schema().Column(c)
		s := ColumnSummary{Name: col.Name, Class: col.Class, Kind: col.Kind}
		distinct := make(map[string]bool)
		var sum float64
		var numeric int
		s.Min, s.Max = math.Inf(1), math.Inf(-1)
		for r := 0; r < t.NumRows(); r++ {
			v := t.Cell(r, c)
			distinct[v.String()] = true
			if v.IsNull() {
				s.Nulls++
				continue
			}
			if v.Kind() == Interval {
				s.Generalized++
			}
			if f, ok := v.Float(); ok {
				numeric++
				sum += f
				s.Min = math.Min(s.Min, f)
				s.Max = math.Max(s.Max, f)
			}
		}
		s.Distinct = len(distinct)
		if numeric > 0 {
			s.Mean = sum / float64(numeric)
		} else {
			s.Min, s.Max = 0, 0
		}
		out[c] = s
	}
	return out
}

// FormatSummary renders the summaries as an aligned table.
func FormatSummary(t *Table) string {
	sums := Summarize(t)
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows, %d columns\n", t.NumRows(), t.NumCols())
	for _, s := range sums {
		fmt.Fprintf(&b, "  %-16s %-16s %-7s distinct=%d nulls=%d",
			s.Name, s.Class, s.Kind, s.Distinct, s.Nulls)
		if s.Kind == Number {
			fmt.Fprintf(&b, " min=%g max=%g mean=%.4g generalized=%d", s.Min, s.Max, s.Mean, s.Generalized)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
