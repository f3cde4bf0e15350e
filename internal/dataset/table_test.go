package dataset

import (
	"strings"
	"testing"
)

// tableISchema reproduces the schema of the paper's Table I.
func tableISchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "SSN", Class: Identifier, Kind: Text},
		Column{Name: "Zipcode", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Nationality", Class: QuasiIdentifier, Kind: Text},
		Column{Name: "Condition", Class: Sensitive, Kind: Text},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func tableI(t *testing.T) *Table {
	t.Helper()
	tb := New(tableISchema(t))
	tb.MustAppendRow(Str("Alice"), Str("111-111-1111"), Num(13053), Num(28), Str("Russian"), Str("AIDS"))
	tb.MustAppendRow(Str("Bob"), Str("222-222-2222"), Num(13068), Num(29), Str("American"), Str("Flu"))
	tb.MustAppendRow(Str("Christine"), Str("333-333-3333"), Num(13068), Num(21), Str("Japanese"), Str("Cancer"))
	tb.MustAppendRow(Str("Robert"), Str("444-444-4444"), Num(13053), Num(23), Str("American"), Str("Meningitis"))
	return tb
}

func TestSchemaBasics(t *testing.T) {
	s := tableISchema(t)
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	i, err := s.Lookup("Age")
	if err != nil || i != 3 {
		t.Errorf("Lookup(Age) = %d, %v", i, err)
	}
	if _, err := s.Lookup("Salary"); err == nil {
		t.Error("Lookup(Salary) should fail")
	}
	if got := s.NamesOf(QuasiIdentifier); len(got) != 3 || got[0] != "Zipcode" {
		t.Errorf("NamesOf(QI) = %v", got)
	}
	if got := s.IndicesOf(Sensitive); len(got) != 1 || got[0] != 5 {
		t.Errorf("IndicesOf(Sensitive) = %v", got)
	}
	if got := s.IndicesOf(Identifier); len(got) != 2 {
		t.Errorf("IndicesOf(Identifier) = %v", got)
	}
}

func TestSchemaRejectsBadColumns(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Kind: Text}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(
		Column{Name: "A", Kind: Text}, Column{Name: "A", Kind: Number},
	); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewSchema(Column{Name: "A", Kind: Interval}); err == nil {
		t.Error("interval declared kind accepted")
	}
	if _, err := NewSchema(Column{Name: "A", Kind: Null}); err == nil {
		t.Error("null declared kind accepted")
	}
}

func TestSchemaProjectAndWithClass(t *testing.T) {
	s := tableISchema(t)
	p, err := s.Project("Age", "Name")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 2 || p.Column(0).Name != "Age" || p.Column(1).Name != "Name" {
		t.Errorf("Project order wrong: %v", p.Names())
	}
	// Projected columns keep the class and kind they had in the source.
	if p.Column(0).Class != QuasiIdentifier || p.Column(0).Kind != Number ||
		p.Column(1).Class != Identifier || p.Column(1).Kind != Text {
		t.Errorf("Project changed column class or kind: %+v, %+v", p.Column(0), p.Column(1))
	}
	if _, err := s.Project("Nope"); err == nil {
		t.Error("Project unknown column accepted")
	}
}

func TestAttrClassParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AttrClass
	}{
		{"id", Identifier}, {"Identifier", Identifier},
		{"qi", QuasiIdentifier}, {"QUASI-IDENTIFIER", QuasiIdentifier}, {"quasi", QuasiIdentifier},
		{"s", Sensitive}, {"sensitive", Sensitive},
	} {
		got, err := ParseAttrClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAttrClass(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAttrClass("secret"); err == nil {
		t.Error("ParseAttrClass(secret) should fail")
	}
}

func TestTableAppendValidation(t *testing.T) {
	tb := New(tableISchema(t))
	if err := tb.AppendRow([]Value{Str("x")}); err == nil {
		t.Error("short row accepted")
	}
	row := []Value{Str("A"), Str("1"), Str("not-a-number"), Num(1), Str("US"), Str("Flu")}
	if err := tb.AppendRow(row); err == nil {
		t.Error("text in numeric column accepted")
	}
	// Interval and Null are fine in numeric columns.
	row = []Value{Str("A"), Str("1"), Span(13000, 14000), NullValue(), Str("US"), Str("Flu")}
	if err := tb.AppendRow(row); err != nil {
		t.Errorf("interval/null in numeric column rejected: %v", err)
	}
	// Null in text column is fine too.
	row = []Value{NullValue(), Str("1"), Num(1), Num(1), Str("US"), Str("Flu")}
	if err := tb.AppendRow(row); err != nil {
		t.Errorf("null in text column rejected: %v", err)
	}
	// Number in text column is not.
	row = []Value{Num(7), Str("1"), Num(1), Num(1), Str("US"), Str("Flu")}
	if err := tb.AppendRow(row); err == nil {
		t.Error("number in text column accepted")
	}
}

func TestTableRowIsolation(t *testing.T) {
	tb := tableI(t)
	in := []Value{Str("E"), Str("5"), Num(1), Num(1), Str("US"), Str("Flu")}
	if err := tb.AppendRow(in); err != nil {
		t.Fatal(err)
	}
	in[0] = Str("Mallory")
	if got, _ := tb.Cell(4, 0).Text(); got != "E" {
		t.Error("AppendRow did not copy the row")
	}
}

func TestTableCloneIndependence(t *testing.T) {
	tb := tableI(t)
	cp := tb.Clone()
	if !tb.Equal(cp) {
		t.Fatal("clone not equal")
	}
	if err := cp.SetCell(0, 3, Num(99)); err != nil {
		t.Fatal(err)
	}
	if tb.Cell(0, 3).MustFloat() == 99 {
		t.Error("clone shares row storage")
	}
}

func TestTableProjectSelect(t *testing.T) {
	tb := tableI(t)
	p, err := tb.Project("Name", "Condition")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.NumCols() != 2 || p.NumRows() != 4 {
		t.Fatalf("Project shape = %dx%d", p.NumRows(), p.NumCols())
	}
	if got, _ := p.Cell(2, 1).Text(); got != "Cancer" {
		t.Errorf("projected cell = %q", got)
	}
	sel := tb.Select(func(row []Value) bool {
		n, _ := row[4].Text()
		return n == "American"
	})
	if sel.NumRows() != 2 {
		t.Errorf("Select rows = %d, want 2", sel.NumRows())
	}
}

func TestColumnExtraction(t *testing.T) {
	tb := tableI(t)
	f := tb.ColumnFloats(3, -1)
	if f[0] != 28 || f[3] != 23 {
		t.Errorf("ColumnFloats = %v", f)
	}
	s := tb.ColumnStrings(0)
	if s[1] != "Bob" {
		t.Errorf("ColumnStrings = %v", s)
	}
	// default used for nulls
	tb.SuppressColumn(3)
	f = tb.ColumnFloats(3, -1)
	for _, x := range f {
		if x != -1 {
			t.Errorf("suppressed column float = %v", x)
		}
	}
	// ColumnStrings yields "" on non-text
	if got := tb.ColumnStrings(2); got[0] != "" {
		t.Errorf("non-text ColumnStrings = %q", got[0])
	}
}

func TestTableMatrixFlat(t *testing.T) {
	tb := tableI(t)
	m := tb.MatrixFlat([]int{2, 3}, 0)
	if len(m) != 8 {
		t.Fatalf("matrix length %d, want 4×2", len(m))
	}
	if m[0] != 13053 || m[1] != 28 {
		t.Errorf("matrix row 0 = %v", m[:2])
	}
	// Interval midpoints flow through.
	if err := tb.SetCell(0, 3, Span(20, 30)); err != nil {
		t.Fatal(err)
	}
	m = tb.MatrixFlat([]int{3}, 0)
	if m[0] != 25 {
		t.Errorf("interval midpoint in matrix = %v", m[0])
	}
}

func TestGroupBy(t *testing.T) {
	tb := tableI(t)
	groups := tb.GroupBy([]int{2}) // Zipcode: 13053 ×2, 13068 ×2
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for _, g := range groups {
		if len(g) != 2 {
			t.Errorf("group size = %d, want 2", len(g))
		}
	}
	// Grouping by all QIs gives 4 singletons here.
	qis := tb.Schema().IndicesOf(QuasiIdentifier)
	groups = tb.GroupBy(qis)
	if len(groups) != 4 {
		t.Errorf("QI groups = %d, want 4", len(groups))
	}
	// Determinism.
	a := tb.GroupBy(qis)
	b := tb.GroupBy(qis)
	for i := range a {
		if len(a[i]) != len(b[i]) || a[i][0] != b[i][0] {
			t.Fatal("GroupBy not deterministic")
		}
	}
}

func TestSuppressColumn(t *testing.T) {
	tb := tableI(t)
	tb.SuppressColumn(5)
	for i := 0; i < tb.NumRows(); i++ {
		if !tb.Cell(i, 5).IsNull() {
			t.Fatalf("row %d condition not suppressed", i)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := tableI(t)
	s := tb.String()
	if !strings.Contains(s, "Name") || !strings.Contains(s, "Christine") {
		t.Errorf("String missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("String has %d lines, want 5", len(lines))
	}
}

func TestSetCellValidation(t *testing.T) {
	tb := tableI(t)
	if err := tb.SetCell(0, 0, Num(3)); err == nil {
		t.Error("SetCell kind violation accepted")
	}
}
