package dataset

import (
	"fmt"
	"strconv"
	"strings"
)

// builderChunkRows is the fixed chunk height of Builder ingest. It is a
// multiple of 64 so chunk boundaries are bitset-word-aligned and chunk
// bitmaps concatenate with word copies.
const builderChunkRows = 8192

// Builder decodes rows (CSV fields, upload records, generator output)
// directly into columnar storage. Unlike appending to a Table — whose column
// buffers grow geometrically, holding up to 2× the final footprint and
// copying every value O(log n) times — the builder accumulates fixed-size
// column chunks and materializes exact-size buffers once, when Table is
// called. Peak transient overhead is bounded by one column's chunks plus its
// final buffer, whatever the row count, which is what lets a 10⁶-row cohort
// load without full intermediate materialization.
//
// Each chunk is itself a colData, so cell encoding (lazy interval/null
// buffers, dictionary interning) is exactly the single-buffer path's; the
// text dictionary is shared across a column's chunks and handed to the final
// column intact.
type Builder struct {
	schema  *Schema
	nrows   int
	cols    []builderCol
	scratch []Value
}

// builderCol accumulates one column's chunks. cur aliases the last chunk.
type builderCol struct {
	chunks []*colData
	cur    *colData
}

// NewBuilder returns a builder for an empty table with the given schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema:  schema,
		cols:    make([]builderCol, schema.Len()),
		scratch: make([]Value, schema.Len()),
	}
}

// AppendRow validates and appends one row of cells. The slice is not
// retained. Validation covers the whole row before any cell is written, so a
// failed row leaves the builder unchanged.
func (b *Builder) AppendRow(row []Value) error {
	if len(row) != b.schema.Len() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrRowWidth, len(row), b.schema.Len())
	}
	for j, v := range row {
		if !b.schema.Column(j).accepts(v) {
			return fmt.Errorf("%w: column %q (%s) cannot hold %s cell",
				ErrKindMismatch, b.schema.Column(j).Name, b.schema.Column(j).Kind, v.Kind())
		}
	}
	for j, v := range row {
		c := &b.cols[j]
		if c.cur == nil || c.cur.n == builderChunkRows {
			next := newColData(b.schema.Column(j).Kind)
			if c.cur != nil && c.cur.dict != nil {
				// One dictionary per column, shared across its chunks: ids stay
				// consistent and the final column adopts it without remapping.
				next.dict = c.cur.dict
			}
			c.chunks = append(c.chunks, next)
			c.cur = next
		}
		c.cur.appendValue(v)
	}
	b.nrows++
	return nil
}

// AppendRecord parses and appends one string record. Fields use the
// Value.String encoding, read as ParseValue reads them, except that plain
// tokens in declared-text columns stay text even when they look numeric
// (e.g. a numeric employee code used as an identifier).
//
// Each field is decoded by its column's declared kind. A number field goes
// to strconv.ParseFloat first: a field it accepts has no surrounding space,
// no '*' and no bracket, so ParseValue would return the same Num. A text
// field is never float-parsed: ParseValue's only other outcome for it is
// the trimmed text. Only fields that are not plain (a failed number, and a
// text field that trims to '*', to nothing or to a bracketed token) go
// through ParseValue, so nulls, intervals and their errors are ParseValue's.
func (b *Builder) AppendRecord(fields []string) error {
	if len(fields) != b.schema.Len() {
		return fmt.Errorf("%w: got %d fields, want %d", ErrRowWidth, len(fields), b.schema.Len())
	}
	for j, s := range fields {
		if b.schema.cols[j].Kind == Number {
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				b.scratch[j] = Num(f)
				continue
			}
		} else if t := strings.TrimSpace(s); t != "" && t != "*" && (t[0] != '[' || t[len(t)-1] != ']') {
			b.scratch[j] = Str(t)
			continue
		}
		v, err := ParseValue(s)
		if err != nil {
			return fmt.Errorf("column %q: %w", b.schema.Column(j).Name, err)
		}
		b.scratch[j] = v
	}
	return b.AppendRow(b.scratch)
}

// Table materializes the built table. Chunks are released column by column
// as their final buffer is assembled, bounding peak memory; the builder must
// not be used afterwards.
func (b *Builder) Table() *Table {
	cols := make([]*colData, b.schema.Len())
	for j := range b.cols {
		cols[j] = materializeChunks(b.schema.Column(j).Kind, b.nrows, b.cols[j].chunks)
		b.cols[j].chunks, b.cols[j].cur = nil, nil
	}
	return &Table{schema: b.schema, nrows: b.nrows, cols: cols}
}

// materializeChunks concatenates a column's chunks into one exact-size
// colData, nilling out each chunk as soon as it is copied.
func materializeChunks(kind ValueKind, n int, chunks []*colData) *colData {
	out := newColData(kind)
	out.n = n
	if n == 0 {
		return out
	}
	var hasNulls, hasSpans, hasNum, hasHi, hasIds bool
	for _, c := range chunks {
		hasNulls = hasNulls || c.nulls != nil
		hasSpans = hasSpans || c.spans != nil
		hasNum = hasNum || c.num != nil
		hasHi = hasHi || c.hi != nil
		if c.ids != nil {
			hasIds = true
			out.dict = c.dict // shared across chunks; adopt as-is
		}
	}
	words := (n + 63) / 64
	if hasNulls {
		out.nulls = make(bitset, words)
	}
	if hasSpans {
		out.spans = make(bitset, words)
	}
	if hasNum {
		out.num = make([]float64, n)
	}
	if hasHi {
		out.hi = make([]float64, n)
	}
	if hasIds {
		out.ids = make([]int32, n)
	}
	base := 0
	for ci, c := range chunks {
		if out.num != nil && c.num != nil {
			copy(out.num[base:], c.num[:c.n])
		}
		if out.hi != nil {
			if c.hi != nil {
				copy(out.hi[base:], c.hi[:c.n])
			} else if c.num != nil {
				// Chunks without interval cells keep hi == num, the invariant
				// readers of materialized hi buffers rely on.
				copy(out.hi[base:], c.num[:c.n])
			}
		}
		if out.ids != nil && c.ids != nil {
			copy(out.ids[base:], c.ids[:c.n])
		}
		// base is a multiple of builderChunkRows, hence word-aligned: chunk
		// bitmaps concatenate with word copies.
		if c.nulls != nil {
			copy(out.nulls[base>>6:], c.nulls)
		}
		if c.spans != nil {
			copy(out.spans[base>>6:], c.spans)
		}
		base += c.n
		chunks[ci] = nil
	}
	return out
}
