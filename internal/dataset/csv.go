package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CSV layout: two header lines, then data rows.
//
//	Name,Age,Income          ← column names
//	id:text,qi:number,s:number  ← class:kind per column
//	Alice,28,91250
//	Bob,[25-30],*
//
// Cells use the Value.String encoding, so intervals and suppressed cells
// round-trip. This self-describing layout lets the CLIs exchange the paper's
// P, P' and Q tables as flat files.

// csvFlushBytes is WriteCSV's write size: rows are appended to one buffer,
// which goes to the writer once it holds this many bytes.
const csvFlushBytes = 32 << 10

// WriteCSV writes the table in the two-header CSV layout. The bytes are
// exactly those encoding/csv's Writer (UseCRLF off) writes for each cell's
// Value.String, but each row is appended straight from the column buffers
// into one reused buffer: no Value, no per-cell string, and every distinct
// number formatted about once (floatCache).
func WriteCSV(w io.Writer, t *Table) error {
	// Sized to the table up to twice the write size: a small release
	// allocates little, and the row that crosses the flush mark fits
	// without growing the buffer.
	buf := make([]byte, 0, min(2*csvFlushBytes, 256+64*t.nrows))
	for j := 0; j < t.NumCols(); j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, t.schema.Column(j).Name)
	}
	buf = append(buf, '\n')
	for j := 0; j < t.NumCols(); j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		c := t.schema.Column(j)
		buf = appendCSVField(buf, classTag(c.Class)+":"+kindTag(c.Kind))
	}
	buf = append(buf, '\n')
	nums := newFloatCache(t.nrows)
	for i := 0; i < t.nrows; i++ {
		for j, c := range t.cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			switch {
			case c.nulls.get(i):
				buf = append(buf, '*')
			case c.kind == Text:
				buf = appendCSVField(buf, c.dict.strs[c.ids[i]])
			case c.spans.get(i):
				buf = append(buf, '[')
				buf = nums.append(buf, c.num[i])
				buf = append(buf, '-')
				buf = nums.append(buf, c.hi[i])
				buf = append(buf, ']')
			default:
				buf = nums.append(buf, c.num[i])
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataset: write csv: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: write csv: %w", err)
	}
	return nil
}

// appendCSVField appends s the way encoding/csv's Writer writes a field
// (Comma ',', UseCRLF off): quoted when it is `\.`, holds a comma, a quote,
// CR or LF, or starts with a unicode.IsSpace rune, with quotes doubled and
// CR and LF kept as they are. An empty field is never quoted.
func appendCSVField(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// csvNeedsQuotes is encoding/csv's fieldNeedsQuotes for Comma ','.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// floatCacheMaxSlots caps a floatCache at 128 KiB.
const floatCacheMaxSlots = 1 << 12

// floatCache memoizes strconv.AppendFloat(…, 'g', -1, 64) — Value.String's
// number format — keyed by the float's bits, in a direct-mapped table of
// one slot per row up to floatCacheMaxSlots. It pays because released
// values repeat: a k-anonymous release holds each quasi-identifier value in
// at least k rows, so a 2·10⁴-row k=8 mondrian release formats about 1.2·10⁵
// interval bounds with under a hundred distinct values. A colliding value
// evicts the slot's; a text longer than a slot is formatted every time.
type floatCache struct {
	slots []floatText
	shift uint
}

type floatText struct {
	bits uint64
	n    uint8 // text length; 0 marks an empty slot
	text [23]byte
}

func newFloatCache(rows int) floatCache {
	n, shift := 16, uint(60) // the slot index is the top log2(n) bits of a 64-bit hash
	for n < rows && n < floatCacheMaxSlots {
		n, shift = n<<1, shift-1
	}
	return floatCache{slots: make([]floatText, n), shift: shift}
}

// append appends f's 'g' -1 text to dst.
func (c floatCache) append(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	e := &c.slots[(b*0x9E3779B97F4A7C15)>>c.shift]
	if e.n != 0 && e.bits == b {
		return append(dst, e.text[:e.n]...)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	if s := dst[start:]; len(s) <= len(e.text) {
		e.bits, e.n = b, uint8(copy(e.text[:], s))
	}
	return dst
}

// ReadCSV reads a table in the two-header CSV layout. Records are decoded
// straight into column buffers through a Builder, so ingest does not
// materialize a []Value row per record.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Records are parsed cell-by-cell into column chunks before Read is
	// called again, so the reader can reuse its record buffer: ingest
	// allocates per cell, not per line.
	cr.ReuseRecord = true
	names, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
	// ReuseRecord means the next Read clobbers this record slice; the header
	// outlives it, so copy.
	names = append([]string(nil), names...)
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv meta header: %w", err)
	}
	if len(meta) != len(names) {
		return nil, fmt.Errorf("dataset: csv meta header has %d fields, want %d", len(meta), len(names))
	}
	cols := make([]Column, len(names))
	for i, m := range meta {
		class, kind, err := parseMeta(m)
		if err != nil {
			return nil, fmt.Errorf("dataset: csv column %q: %w", names[i], err)
		}
		cols[i] = Column{Name: names[i], Class: class, Kind: kind}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(schema)
	for line := 3; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv line %d: %w", line, err)
		}
		if err := b.AppendRecord(rec); err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
	}
	return b.Table(), nil
}

func classTag(c AttrClass) string {
	switch c {
	case Identifier:
		return "id"
	case QuasiIdentifier:
		return "qi"
	case Sensitive:
		return "s"
	default:
		return "qi"
	}
}

func kindTag(k ValueKind) string {
	if k == Text {
		return "text"
	}
	return "number"
}

func parseMeta(m string) (AttrClass, ValueKind, error) {
	parts := strings.SplitN(strings.TrimSpace(m), ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("malformed meta %q (want class:kind)", m)
	}
	class, err := ParseAttrClass(parts[0])
	if err != nil {
		return 0, 0, err
	}
	switch strings.ToLower(parts[1]) {
	case "number", "num", "n":
		return class, Number, nil
	case "text", "str", "t":
		return class, Text, nil
	default:
		return 0, 0, fmt.Errorf("unknown kind %q", parts[1])
	}
}
