package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the CSV codec as it was before WriteCSV wrote straight
// from the column buffers and AppendRecord decoded fields by column kind:
// encoding/csv's Writer over each cell's Value.String, and ParseValue for
// every field. FuzzCSVMatchesReference and TestCSVMatchesReference pin the
// codec to it, byte for byte on writing and table for table (or error text
// for error text) on reading.

// referenceWriteCSV is WriteCSV as encoding/csv over Value.String.
func referenceWriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	meta := make([]string, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		c := t.Schema().Column(i)
		meta[i] = classTag(c.Class) + ":" + kindTag(c.Kind)
	}
	if err := cw.Write(meta); err != nil {
		return fmt.Errorf("dataset: write csv meta header: %w", err)
	}
	cells := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for j := 0; j < t.NumCols(); j++ {
			cells[j] = t.Cell(i, j).String()
		}
		if err := cw.Write(cells); err != nil {
			return fmt.Errorf("dataset: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flush csv: %w", err)
	}
	return nil
}

// referenceAppendRecord is Builder.AppendRecord with ParseValue per field.
func referenceAppendRecord(b *Builder, fields []string) error {
	if len(fields) != b.schema.Len() {
		return fmt.Errorf("%w: got %d fields, want %d", ErrRowWidth, len(fields), b.schema.Len())
	}
	for j, s := range fields {
		v, err := ParseValue(s)
		if err != nil {
			return fmt.Errorf("column %q: %w", b.schema.Column(j).Name, err)
		}
		if b.schema.Column(j).Kind == Text && v.Kind() == Number {
			v = Str(strings.TrimSpace(s))
		}
		b.scratch[j] = v
	}
	return b.AppendRow(b.scratch)
}

// referenceReadCSV is ReadCSV over referenceAppendRecord.
func referenceReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	names, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
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
		if err := referenceAppendRecord(b, rec); err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
	}
	return b.Table(), nil
}

// csvFuzzText is the text-cell and column-name palette: every quoting
// trigger of encoding/csv (comma, quote, CR, LF, a leading unicode.IsSpace
// rune, `\.`), the null and interval spellings, numeric-looking text and
// invalid UTF-8.
var csvFuzzText = []string{
	"", "*", " * ", ",", "a,b", `"`, `say "hi"`, `""`, "\r", "\n", "a\r\nb",
	" lead", "\tlead", "\u00a0lead", "\u3000lead", "\u0085lead", "\vx", "trail ",
	`\.`, `\.x`, `x\.`, "12", " 12 ", "-3.5", "1e5", "0x1p-2", "NaN", "+Inf",
	"[1-2]", "[x]", "[", "plain", "Emily Clark", "ünïcode", "\xff\xfe",
	"Teaching Assistant, Penn State University",
}

// csvFuzzNums are the numbers whose 'g' -1 text has an edge: NaN, ±Inf,
// −0, subnormals, the normal boundary, ±1e308, the largest float, exponent
// switches and a 24-byte text.
var csvFuzzNums = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e20, 1e-7,
	1e-4, 0.1, 7.1, 86649, -1234.5678, 123456789012345680,
}

// fuzzSource hands out the fuzz input a byte or a word at a time, zeros
// once it runs dry.
type fuzzSource []byte

func (f *fuzzSource) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzSource) u64() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(f.byte())
	}
	return w
}

// number draws a palette number, one of a few repeating values, or any
// float64 bit pattern, so most tables hold more distinct floats than
// WriteCSV's cache has slots.
func (f *fuzzSource) number() float64 {
	switch b := f.byte(); b % 4 {
	case 0:
		return csvFuzzNums[int(b/4)%len(csvFuzzNums)]
	case 1:
		return float64(b/4%8) - 3.5
	default:
		return math.Float64frombits(f.u64())
	}
}

// fuzzTable builds a table from the fuzz input: 1–4 columns with palette
// names, numbers, intervals (negative bounds included), palette text and
// nulls, 0–127 rows (up to 4,064 when the row byte's top bit is set), and
// suppressed columns.
func fuzzTable(data []byte) *Table {
	src := fuzzSource(data)
	ncols := 1 + int(src.byte()%4)
	cols := make([]Column, ncols)
	used := map[string]bool{}
	for j := range cols {
		name := csvFuzzText[int(src.byte())%len(csvFuzzText)]
		if name == "" || used[name] {
			name += strconv.Itoa(j)
		}
		used[name] = true
		kind := Number
		if src.byte()%3 == 0 {
			kind = Text
		}
		cols[j] = Column{Name: name, Class: AttrClass(src.byte() % 3), Kind: kind}
	}
	t := New(MustSchema(cols...))
	nrows := int(src.byte())
	if nrows >= 128 {
		nrows = (nrows - 128) * 32
	}
	row := make([]Value, ncols)
	for i := 0; i < nrows; i++ {
		for j, c := range cols {
			b := src.byte()
			switch {
			case b%8 == 0:
				row[j] = NullValue()
			case c.Kind == Text:
				row[j] = Str(csvFuzzText[int(b/8)%len(csvFuzzText)])
			case b%8 < 4:
				lo, hi := src.number(), src.number()
				if lo > hi {
					lo, hi = hi, lo
				}
				row[j] = Span(lo, hi)
			default:
				row[j] = Num(src.number())
			}
		}
		t.MustAppendRow(row...)
	}
	for j := range cols {
		if src.byte()%8 == 1 {
			t.SuppressColumn(j)
		}
	}
	return t
}

// checkCSVWrite fails unless WriteCSV writes the reference's bytes for t.
func checkCSVWrite(t *testing.T, tb *Table) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteCSV(&got, tb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := referenceWriteCSV(&want, tb); err != nil {
		t.Fatalf("reference WriteCSV: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV differs from the reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// checkCSVRead fails unless ReadCSV and the reference read in agree: the
// same error text, or tables with the same schema and cells, compared by
// fingerprint, which holds every float's bits (so NaN bounds compare too).
func checkCSVRead(t *testing.T, in []byte) {
	t.Helper()
	got, gotErr := ReadCSV(bytes.NewReader(in))
	want, wantErr := referenceReadCSV(bytes.NewReader(in))
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadCSV(%q): error %v, reference error %v", in, gotErr, wantErr)
		}
		return
	}
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("ReadCSV(%q): schema %v, reference %v", in, got.Schema().Names(), want.Schema().Names())
	}
	var gf, wf bytes.Buffer
	if err := got.WriteFingerprint(&gf); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteFingerprint(&wf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gf.Bytes(), wf.Bytes()) {
		t.Fatalf("ReadCSV(%q) differs from the reference:\n got\n%s\nwant\n%s", in, got, want)
	}
}

// FuzzCSVMatchesReference pins the codec to the reference. The input both
// generates a table, which must write the reference's bytes and read back
// as the reference reads it, and is itself read as CSV: bare, and as the
// records under the generated table's two header lines.
func FuzzCSVMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"Name,Age\nid:text,qi:number\nAlice,28\nBob,[25-30]\n",
		"A,B\nqi:number,id:text\n 12 ,007\n*,*\n,\n[-3--1], 1e5 \n1e400,[1-2]\n",
		"A,B\nqi:number,qi:text\n0x1p-2,NaN\nInf,[x]\n1_000,\"a,b\"\n-0,\" * \"\n",
		"A\nqi:number\n[9-2]\n",
		"A\nqi:number\nhello\n",
		"\"a\"\"b\",c\nid:text,s:n\n\"x\ny\",2\n",
		"A,B\nqi:number\n1,2\n",
		"A\nxx:number\n1\n",
		"A\nqi:number\n\"unterminated\n",
		"\x03\x00\x01\x00\x11\x02\x22\x01\x90\x10\x20\x31\x42\x53\x64\x75\x86",
		"\x02\x05\x00\x01\x1d\x00\x02\x40\x04\x05\x06\x07",
		"\x01\x00\x01\x00\xff\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := fuzzTable(data)
		out := checkCSVWrite(t, tb)
		checkCSVRead(t, out)
		checkCSVRead(t, data)
		var header bytes.Buffer
		if err := WriteCSV(&header, New(tb.Schema())); err != nil {
			t.Fatal(err)
		}
		checkCSVRead(t, append(header.Bytes(), data...))
	})
}

// TestCSVMatchesReference runs the codec against the reference at the
// service's shape: a 5,000-row table whose numbers mostly repeat (a
// release) and one whose 20,000 numbers are all distinct, more than the
// float cache holds.
func TestCSVMatchesReference(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		tb := New(MustSchema(
			Column{Name: "Name", Class: Identifier, Kind: Text},
			Column{Name: "Teaching", Class: QuasiIdentifier, Kind: Number},
			Column{Name: "Research", Class: QuasiIdentifier, Kind: Number},
			Column{Name: "Salary", Class: Sensitive, Kind: Number},
		))
		for i := 0; i < 5000; i++ {
			x := float64(i%40) / 7
			if distinct {
				x = float64(i) / 3
			}
			tb.MustAppendRow(Str(fmt.Sprintf("Person %d", i)), Span(x, x+0.5), Num(-x), Num(float64(i)*1.5))
		}
		if !distinct {
			tb = tb.WithSuppressed(3)
		}
		checkCSVRead(t, checkCSVWrite(t, tb))
	}
}
