package linkage

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalizeName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"John Doe", "doe john"},
		{"Doe, John", "doe john"},
		{"  DOE   john ", "doe john"},
		{"O'Brien, Mary-Jane", "brien jane mary o"},
		{"", ""},
		{"J.R. Smith", "j r smith"},
	}
	for _, tc := range tests {
		if got := NormalizeName(tc.in); got != tc.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestJaro(t *testing.T) {
	// Classic reference values.
	if got := Jaro("MARTHA", "MARHTA"); !almost(got, 0.944444, 1e-5) {
		t.Errorf("MARTHA/MARHTA = %g", got)
	}
	if got := Jaro("DIXON", "DICKSONX"); !almost(got, 0.766667, 1e-5) {
		t.Errorf("DIXON/DICKSONX = %g", got)
	}
	if got := Jaro("", ""); got != 1 {
		t.Errorf("empty = %g", got)
	}
	if got := Jaro("a", ""); got != 0 {
		t.Errorf("half empty = %g", got)
	}
	if got := Jaro("ab", "cd"); got != 0 {
		t.Errorf("no match = %g", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("MARTHA", "MARHTA"); !almost(got, 0.961111, 1e-5) {
		t.Errorf("MARTHA/MARHTA = %g", got)
	}
	if got := JaroWinkler("DWAYNE", "DUANE"); !almost(got, 0.84, 1e-2) {
		t.Errorf("DWAYNE/DUANE = %g", got)
	}
	// Winkler boost never decreases Jaro.
	if jw, j := JaroWinkler("prefix", "prefecture"), Jaro("prefix", "prefecture"); jw < j {
		t.Errorf("JW %g < Jaro %g", jw, j)
	}
}

func TestSoundex(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"},
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"", "0000"},
		{"123", "0000"},
		{"Lee, Robert", "L000"}, // first token only
	}
	for _, tc := range tests {
		if got := Soundex(tc.in); got != tc.want {
			t.Errorf("Soundex(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLinkExactRoster(t *testing.T) {
	release := []string{"Alice Johnson", "Bob Smith", "Christine Lee", "Robert Brown"}
	web := []string{"Robert Brown", "Alice Johnson", "Bob Smith"}
	links, err := DefaultMatcher().Link(web, release)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 3, 1: 0, 2: 1}
	if len(links) != len(want) {
		t.Fatalf("links = %v", links)
	}
	for q, tgt := range want {
		if links[q] != tgt {
			t.Errorf("links[%d] = %d, want %d", q, links[q], tgt)
		}
	}
}

func TestLinkNoisyNames(t *testing.T) {
	release := []string{"Christine Anderson", "Katherine Sanders"}
	web := []string{"Cristine Andersen", "Catherine Sanders"}
	m := DefaultMatcher()
	m.Block = false // typo'd first letters break phonetic blocking; scan all
	links, err := m.Link(web, release)
	if err != nil {
		t.Fatal(err)
	}
	if links[0] != 0 || links[1] != 1 {
		t.Errorf("links = %v", links)
	}
}

func TestLinkRespectsThreshold(t *testing.T) {
	m := DefaultMatcher()
	links, err := m.Link([]string{"Zebulon Pike"}, []string{"Alice Johnson"})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("unrelated names linked: %v", links)
	}
}

func TestLinkOneToOne(t *testing.T) {
	// Two identical queries compete for one target; only one wins.
	m := DefaultMatcher()
	links, err := m.Link([]string{"John Doe", "John Doe"}, []string{"John Doe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Errorf("links = %v, want exactly one", links)
	}
}

func TestLinkConflictResolution(t *testing.T) {
	// Query 0 is a worse match for the target than query 1: the better
	// score wins regardless of order.
	m := &Matcher{Sim: func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0.9
	}, Threshold: 0.5}
	links, err := m.Link([]string{"near miss", "target"}, []string{"target"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := links[1]; !ok || got != 0 {
		t.Errorf("links = %v, want {1:0}", links)
	}
}

func TestLinkValidation(t *testing.T) {
	m := &Matcher{Sim: nil, Threshold: 0.5}
	if _, err := m.Link([]string{"a"}, []string{"b"}); err == nil {
		t.Error("nil similarity accepted")
	}
	m = &Matcher{Sim: JaroWinkler, Threshold: 1.5}
	if _, err := m.Link([]string{"a"}, []string{"b"}); err == nil {
		t.Error("bad threshold accepted")
	}
}

// Property: Jaro-Winkler stays in [0, 1] and equals 1 on identical strings.
func TestJaroWinklerRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 16 {
			a = a[:16]
		}
		if len(b) > 16 {
			b = b[:16]
		}
		s := JaroWinkler(a, b)
		if s < 0 || s > 1+1e-12 {
			return false
		}
		return JaroWinkler(a, a) >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
