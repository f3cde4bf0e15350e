package dataset

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Table is an in-memory relation: a schema plus typed column buffers. Tables
// are the universal currency of the reproduction — the private data P,
// candidate releases P', web data Q and fused estimates P̂ are all Tables.
//
// Storage is columnar (see DESIGN.md): one typed buffer per column, shared
// copy-on-write between tables. Clone, Project, WithSuppressed and
// WithColumnFloats are O(columns); mutating a table copies only the columns
// it touches. A Table is not safe for concurrent mutation; concurrent reads
// (including Clone and the With* views) are fine.
type Table struct {
	schema *Schema
	nrows  int
	cols   []*colData
}

// ErrRowWidth is returned when a row's length does not match the schema.
var ErrRowWidth = errors.New("dataset: row width does not match schema")

// ErrKindMismatch is returned when a cell kind violates its column kind.
var ErrKindMismatch = errors.New("dataset: cell kind does not match column")

// ErrTooFewRecords is the typed "k exceeds the table" condition every
// anonymizer wraps: a requested anonymization level needs more records than
// the table holds. Callers detect it with errors.Is (see core.EndsSweep).
var ErrTooFewRecords = errors.New("dataset: too few records for the requested anonymization level")

// New returns an empty table with the given schema.
func New(schema *Schema) *Table {
	cols := make([]*colData, schema.Len())
	for i := range cols {
		cols[i] = newColData(schema.Column(i).Kind)
	}
	return &Table{schema: schema, cols: cols}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return t.schema.Len() }

// ensureOwned makes column j privately owned (copying shared buffers) and
// returns its storage. Every mutation goes through it.
func (t *Table) ensureOwned(j int) *colData {
	c := t.cols[j]
	if c.refs.Load() > 1 {
		d := c.copyData()
		c.refs.Add(-1)
		t.cols[j] = d
		return d
	}
	return c
}

// checkRow validates a row against the schema.
func (t *Table) checkRow(row []Value) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrRowWidth, len(row), t.schema.Len())
	}
	for i, v := range row {
		if !t.schema.Column(i).accepts(v) {
			return fmt.Errorf("%w: column %q (%s) cannot hold %s cell",
				ErrKindMismatch, t.schema.Column(i).Name, t.schema.Column(i).Kind, v.Kind())
		}
	}
	return nil
}

// AppendRow validates and appends a row. The slice is not retained.
func (t *Table) AppendRow(row []Value) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	for j, v := range row {
		t.ensureOwned(j).appendValue(v)
	}
	t.nrows++
	return nil
}

// MustAppendRow is AppendRow that panics on error, for statically known rows.
func (t *Table) MustAppendRow(row ...Value) {
	if err := t.AppendRow(row); err != nil {
		panic(err)
	}
}

// Cell returns the cell at (row, col).
func (t *Table) Cell(row, col int) Value { return t.cols[col].value(row) }

// SetCell overwrites the cell at (row, col) after kind validation.
func (t *Table) SetCell(row, col int, v Value) error {
	if !t.schema.Column(col).accepts(v) {
		return fmt.Errorf("%w: column %q (%s) cannot hold %s cell",
			ErrKindMismatch, t.schema.Column(col).Name, t.schema.Column(col).Kind, v.Kind())
	}
	t.ensureOwned(col).setValue(row, v)
	return nil
}

// Clone returns an independent copy of the table. Column buffers are shared
// copy-on-write, so Clone is O(columns); either table copies a column only
// when it first mutates it.
func (t *Table) Clone() *Table {
	cols := make([]*colData, len(t.cols))
	for i, c := range t.cols {
		c.refs.Add(1)
		cols[i] = c
	}
	return &Table{schema: t.schema, nrows: t.nrows, cols: cols}
}

// Project returns a new table with only the named columns. The column
// buffers are shared copy-on-write with the receiver.
func (t *Table) Project(names ...string) (*Table, error) {
	ps, err := t.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	cols := make([]*colData, len(names))
	for i, n := range names {
		c := t.cols[t.schema.MustLookup(n)]
		c.refs.Add(1)
		cols[i] = c
	}
	return &Table{schema: ps, nrows: t.nrows, cols: cols}, nil
}

// Select returns a new table containing the rows for which keep returns true.
func (t *Table) Select(keep func(row []Value) bool) *Table {
	out := New(t.schema)
	scratch := make([]Value, len(t.cols))
	for i := 0; i < t.nrows; i++ {
		for j, c := range t.cols {
			scratch[j] = c.value(i)
		}
		if keep(scratch) {
			for j, v := range scratch {
				out.cols[j].appendValue(v)
			}
			out.nrows++
		}
	}
	return out
}

// ColumnFloats extracts a numeric column as a float slice. Cells without a
// numeric reading (Null, Text) yield def.
func (t *Table) ColumnFloats(col int, def float64) []float64 {
	return t.AppendColumnFloats(make([]float64, 0, t.nrows), col, def)
}

// AppendColumnFloats appends the numeric reading of every cell in the column
// to dst (def for cells without one) and returns the extended slice — the
// allocation-free form of ColumnFloats for hot paths.
func (t *Table) AppendColumnFloats(dst []float64, col int, def float64) []float64 {
	c := t.cols[col]
	if c.kind == Number && c.nulls == nil && c.spans == nil {
		return append(dst, c.num[:t.nrows]...)
	}
	for i := 0; i < t.nrows; i++ {
		if f, ok := c.float(i); ok {
			dst = append(dst, f)
		} else {
			dst = append(dst, def)
		}
	}
	return dst
}

// FloatColumn returns the numeric reading of every cell (interval midpoints)
// plus a presence mask — the columnar input to feature assembly and
// imputation.
func (t *Table) FloatColumn(col int) (vals []float64, present []bool) {
	c := t.cols[col]
	vals = make([]float64, t.nrows)
	present = make([]bool, t.nrows)
	for i := 0; i < t.nrows; i++ {
		vals[i], present[i] = c.float(i)
	}
	return vals, present
}

// FloatColumnInto fills vals and present (each of length NumRows) with the
// numeric reading and presence of every cell — FloatColumn into caller-owned
// buffers, for arena-backed feature assembly.
func (t *Table) FloatColumnInto(col int, vals []float64, present []bool) {
	c := t.cols[col]
	for i := 0; i < t.nrows; i++ {
		vals[i], present[i] = c.float(i)
	}
}

// ColumnStrings extracts a text column; non-text cells yield "".
func (t *Table) ColumnStrings(col int) []string {
	out := make([]string, t.nrows)
	c := t.cols[col]
	if c.kind != Text {
		return out
	}
	for i := 0; i < t.nrows; i++ {
		if !c.nulls.get(i) {
			out[i] = c.dict.strs[c.ids[i]]
		}
	}
	return out
}

// MatrixFlat extracts the given columns as one dense row-major buffer of
// NumRows()×len(cols) floats, row i's at [i*len(cols), (i+1)*len(cols)):
// each cell as Value.Float reads it (interval midpoints), and def for a null
// or non-numeric cell. It is the layout the MDAV kernel scans: one
// allocation, stride access, no per-row pointer chasing. The fill runs
// column by column so all-number columns copy straight out of their typed
// buffers.
func (t *Table) MatrixFlat(cols []int, def float64) []float64 {
	d := len(cols)
	flat := make([]float64, t.nrows*d)
	for j, ci := range cols {
		c := t.cols[ci]
		if c.kind == Number && c.nulls == nil && c.spans == nil {
			num := c.num[:t.nrows]
			for i, v := range num {
				flat[i*d+j] = v
			}
			continue
		}
		for i := 0; i < t.nrows; i++ {
			if f, ok := c.float(i); ok {
				flat[i*d+j] = f
			} else {
				flat[i*d+j] = def
			}
		}
	}
	return flat
}

// SuppressColumn nulls out an entire column — how the paper removes the
// sensitive attribute from a release while keeping the column in the schema.
// The old buffers are dropped, not rewritten, so suppression is O(rows/64)
// regardless of column content and never touches storage shared with other
// tables.
func (t *Table) SuppressColumn(col int) {
	old := t.cols[col]
	t.cols[col] = allNullCol(old.kind, t.nrows)
	old.refs.Add(-1)
}

// WithSuppressed returns a view of the table with the given columns
// suppressed and every other column buffer shared — the zero-copy release
// projection (anonymize, then hide the sensitive attribute).
func (t *Table) WithSuppressed(cols ...int) *Table {
	out := t.Clone()
	for _, c := range cols {
		out.SuppressColumn(c)
	}
	return out
}

// WithColumnFloats returns a view of the table whose col holds the given
// numeric values (one per row) and whose other column buffers are shared —
// how the fusion layer materializes P̂ without copying the release.
func (t *Table) WithColumnFloats(col int, vals []float64) (*Table, error) {
	if t.schema.Column(col).Kind != Number {
		return nil, fmt.Errorf("%w: column %q (%s) cannot hold number cells",
			ErrKindMismatch, t.schema.Column(col).Name, t.schema.Column(col).Kind)
	}
	if len(vals) != t.nrows {
		return nil, fmt.Errorf("%w: %d values for %d rows", ErrRowWidth, len(vals), t.nrows)
	}
	nc := newColData(Number)
	nc.n = t.nrows
	nc.num = append([]float64(nil), vals...)
	return t.withColumn(col, nc), nil
}

// WithColumnBounds returns a view of the table whose number column col
// holds, in row i, a null when nulls[i] is set (nulls may be nil), else
// Num(lo[i]) when hi is nil or lo[i] == hi[i], and Span(lo[i], hi[i])
// otherwise; every other column buffer is shared. It is how an anonymizer
// writes a generalized quasi-identifier column in one pass: the cells equal
// those a SetCell per row would write. The view keeps lo as its value
// buffer, and hi when some row is an interval, so the caller hands both
// over and must not touch them afterwards. A row whose lo is above its hi
// is an error.
func (t *Table) WithColumnBounds(col int, lo, hi []float64, nulls []bool) (*Table, error) {
	if t.schema.Column(col).Kind != Number {
		return nil, fmt.Errorf("%w: column %q (%s) cannot hold number cells",
			ErrKindMismatch, t.schema.Column(col).Name, t.schema.Column(col).Kind)
	}
	if len(lo) != t.nrows || (hi != nil && len(hi) != t.nrows) || (nulls != nil && len(nulls) != t.nrows) {
		return nil, fmt.Errorf("%w: %d/%d bounds for %d rows", ErrRowWidth, len(lo), len(hi), t.nrows)
	}
	nc := newColData(Number)
	nc.n, nc.num = t.nrows, lo
	// Bitmaps end at the word of their last set bit, as SetCell's ensure
	// leaves them.
	lastSpan, lastNull := -1, -1
	for i, l := range lo {
		switch {
		case nulls != nil && nulls[i]:
			nc.nulls = bitsetFor(nc.nulls, t.nrows)
			nc.nulls.set(i)
			lastNull = i
		case hi == nil:
		case l == hi[i]:
			hi[i] = l
		case l > hi[i]:
			return nil, fmt.Errorf("dataset: row %d: invalid interval [%g, %g]", i, l, hi[i])
		default:
			nc.spans = bitsetFor(nc.spans, t.nrows)
			nc.spans.set(i)
			lastSpan = i
		}
	}
	if lastSpan >= 0 {
		nc.hi, nc.spans = hi, nc.spans[:lastSpan>>6+1]
	}
	if lastNull >= 0 {
		nc.nulls = nc.nulls[:lastNull>>6+1]
	}
	return t.withColumn(col, nc), nil
}

// bitsetFor returns b, or a zero bitset for n bits when b is nil.
func bitsetFor(b bitset, n int) bitset {
	if b == nil {
		return make(bitset, (n+63)/64)
	}
	return b
}

// withColumn returns a view of the table with column col's storage replaced
// by nc and every other column shared.
func (t *Table) withColumn(col int, nc *colData) *Table {
	out := t.Clone()
	out.cols[col].refs.Add(-1)
	out.cols[col] = nc
	return out
}

// Equal reports whether two tables have equal schemas and cellwise-equal rows.
func (t *Table) Equal(u *Table) bool {
	if !t.schema.Equal(u.schema) || t.nrows != u.nrows {
		return false
	}
	for j := range t.cols {
		a, b := t.cols[j], u.cols[j]
		if a == b {
			continue // shared storage is equal by construction
		}
		for i := 0; i < t.nrows; i++ {
			if !a.value(i).Equal(b.value(i)) {
				return false
			}
		}
	}
	return true
}

// GroupBy partitions row indices by the rendered values of the given columns.
// It is the equivalence-class computation used by k-anonymity checks and the
// discernibility metric: rows with identical (generalized) cells in cols fall
// in one group. Group order is deterministic (lexicographic by key).
func (t *Table) GroupBy(cols []int) [][]int {
	groups := make(map[string][]int)
	var keys []string
	var b strings.Builder
	for i := 0; i < t.nrows; i++ {
		b.Reset()
		for _, c := range cols {
			b.WriteString(t.cols[c].value(i).String())
			b.WriteByte('\x1f')
		}
		k := b.String()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

// String renders the table in the aligned plain-text style of the paper's
// tables, suitable for examples and CLI output. The last column is not
// padded, so no line ends in a space.
func (t *Table) String() string {
	widths := make([]int, t.schema.Len())
	header := t.schema.Names()
	for i, h := range header {
		widths[i] = len(h)
	}
	rendered := make([][]string, t.nrows)
	for i := range rendered {
		cells := make([]string, len(t.cols))
		for j, c := range t.cols {
			cells[j] = c.value(i).String()
			if len(cells[j]) > widths[j] {
				widths[j] = len(cells[j])
			}
		}
		rendered[i] = cells
	}
	if len(widths) > 0 {
		widths[len(widths)-1] = 0 // no trailing padding
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[j]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, cells := range rendered {
		writeRow(cells)
	}
	return b.String()
}
