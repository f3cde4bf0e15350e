// Package linkage implements record linkage between the anonymized release
// and the adversary's web-extracted entities — the "use the identifiers
// present in the release to index into the web" step of the paper's attack
// (Section 3.B).
//
// The paper assumes exact identifiers; real web extraction yields noisy
// names, so the package provides approximate string similarity (Jaro,
// Jaro-Winkler), phonetic blocking (Soundex) and a best-match linker with a
// similarity threshold.
package linkage

import (
	"strings"
	"unicode"
)

// NormalizeName canonicalizes a person name for comparison: lower-case,
// punctuation stripped, whitespace collapsed, tokens sorted so "Doe, John"
// matches "john doe".
func NormalizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsSpace(r) || r == ',' || r == '.' || r == '-' || r == '\'':
			b.WriteByte(' ')
		}
	}
	tokens := strings.Fields(b.String())
	// Insertion sort; names have a handful of tokens.
	for i := 1; i < len(tokens); i++ {
		for j := i; j > 0 && tokens[j] < tokens[j-1]; j-- {
			tokens[j], tokens[j-1] = tokens[j-1], tokens[j]
		}
	}
	return strings.Join(tokens, " ")
}

// Jaro returns the Jaro similarity in [0, 1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	var matches int
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	var transpositions int
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix (up to 4
// runes) with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Soundex returns the classic four-character American Soundex code of the
// first token of s, used for phonetic blocking. Non-alphabetic input yields
// "0000".
func Soundex(s string) string {
	s = strings.ToUpper(strings.TrimSpace(s))
	var letters []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			letters = append(letters, c)
		} else if len(letters) > 0 && (c == ' ' || c == ',') {
			break // first token only
		}
	}
	if len(letters) == 0 {
		return "0000"
	}
	code := func(c byte) byte {
		switch c {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		default: // A E I O U H W Y
			return 0
		}
	}
	out := []byte{letters[0]}
	prev := code(letters[0])
	for _, c := range letters[1:] {
		d := code(c)
		if d != 0 && d != prev {
			out = append(out, d)
			if len(out) == 4 {
				break
			}
		}
		if c == 'H' || c == 'W' {
			continue // H and W do not reset the run
		}
		prev = d
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}
