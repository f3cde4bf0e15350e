package dataset

import (
	"errors"
	"fmt"
	"strings"
)

// AttrClass is the paper's three-way attribute classification (Section 1).
type AttrClass int

const (
	// Identifier attributes carry explicit identifiers (Name, SSN). In the
	// enterprise setting they are retained in the release.
	Identifier AttrClass = iota
	// QuasiIdentifier attributes could indirectly identify individuals
	// (Age, Zipcode) and are the ones generalized by anonymizers.
	QuasiIdentifier
	// Sensitive attributes carry the information to protect (Income).
	Sensitive
)

// String returns the class name.
func (c AttrClass) String() string {
	switch c {
	case Identifier:
		return "identifier"
	case QuasiIdentifier:
		return "quasi-identifier"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("AttrClass(%d)", int(c))
	}
}

// ParseAttrClass parses the String form (case-insensitive; also accepts the
// short forms "id", "qi", "s").
func ParseAttrClass(s string) (AttrClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "identifier", "id":
		return Identifier, nil
	case "quasi-identifier", "quasi", "qi":
		return QuasiIdentifier, nil
	case "sensitive", "s":
		return Sensitive, nil
	default:
		return 0, fmt.Errorf("dataset: unknown attribute class %q", s)
	}
}

// Column describes one attribute.
type Column struct {
	Name  string
	Class AttrClass
	// Kind is the expected cell kind for the column (Number or Text).
	// Interval and Null cells are accepted in Number columns, since
	// anonymization rewrites numbers into intervals or suppresses them.
	Kind ValueKind
}

// Schema is an ordered attribute list. The zero Schema is empty.
type Schema struct {
	cols  []Column
	index map[string]int
}

// ErrNoColumn is returned when a named column does not exist.
var ErrNoColumn = errors.New("dataset: no such column")

// NewSchema builds a schema from columns. Column names must be unique and
// non-empty.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: make([]Column, len(cols)), index: make(map[string]int, len(cols))}
	copy(s.cols, cols)
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("dataset: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate column name %q", c.Name)
		}
		if c.Kind != Number && c.Kind != Text {
			return nil, fmt.Errorf("dataset: column %q: declared kind must be number or text, got %s", c.Name, c.Kind)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Lookup returns the index of the named column.
func (s *Schema) Lookup(name string) (int, error) {
	if i, ok := s.index[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// MustLookup is Lookup that panics on error.
func (s *Schema) MustLookup(name string) int {
	i, err := s.Lookup(name)
	if err != nil {
		panic(err)
	}
	return i
}

// IndicesOf returns the column indices having the given class, in schema
// order. This is how anonymizers find the quasi-identifiers and attackers
// find the identifiers.
func (s *Schema) IndicesOf(class AttrClass) []int {
	var out []int
	for i, c := range s.cols {
		if c.Class == class {
			out = append(out, i)
		}
	}
	return out
}

// NamesOf returns the column names having the given class, in schema order.
func (s *Schema) NamesOf(class AttrClass) []string {
	var out []string
	for _, c := range s.cols {
		if c.Class == class {
			out = append(out, c.Name)
		}
	}
	return out
}

// Names returns all column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Equal reports whether two schemas have identical columns in order.
func (s *Schema) Equal(t *Schema) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != t.cols[i] {
			return false
		}
	}
	return true
}

// Project returns a new schema containing only the named columns, in the
// given order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, err := s.Lookup(n)
		if err != nil {
			return nil, err
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...)
}

// accepts reports whether a cell may be stored in column c. Null is always
// acceptable (suppression); intervals are acceptable in numeric columns.
func (c Column) accepts(v Value) bool {
	switch v.Kind() {
	case Null:
		return true
	case Number, Interval:
		return c.Kind == Number
	case Text:
		return c.Kind == Text
	default:
		return false
	}
}
