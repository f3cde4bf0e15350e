// Package web simulates the 2008 web the paper's adversary crawls: profile
// pages generated from ground-truth facts about individuals, a small
// inverted-index search engine queried by name, and an extractor that pulls
// employment and property-holdings attributes back out (with configurable
// noise and missing data).
//
// This is the substitution for real homepages/blogs: the adversary
// pipeline — identifier → search → extract → link → fuse — exercises the
// same code path the paper describes.
package web

import "strings"

// Ladder is a seniority-ordered list of job titles; the index+1 maps
// linearly onto a 1..10 seniority score that the fusion system consumes as
// the numeric "Employment" input of Figure 2.
type Ladder []string

// CorporateLadder is the employment ladder of the paper's financial example
// (Table IV: "Assistant, NYU", "Manager, Verizon", "CEO, Microsoft"…).
var CorporateLadder = Ladder{
	"Assistant", "Associate", "Analyst", "Manager", "Senior Manager",
	"Director", "Senior Director", "Vice President", "Senior Vice President", "CEO",
}

// AcademicLadder is the ladder of the paper's university experiment
// (faculty salary data, homepages of employees).
var AcademicLadder = Ladder{
	"Teaching Assistant", "Instructor", "Lecturer", "Senior Lecturer",
	"Assistant Professor", "Associate Professor", "Professor",
	"Distinguished Professor", "Department Head", "Dean",
}

// Score returns the 1..10 seniority score of a title, matching
// case-insensitively, and whether the title is on the ladder.
func (l Ladder) Score(title string) (float64, bool) {
	t := strings.ToLower(strings.TrimSpace(title))
	for i, s := range l {
		if strings.ToLower(s) == t {
			return scaleToTen(i, len(l)), true
		}
	}
	return 0, false
}

// TitleFor returns the ladder title whose score is closest to want
// (clamped to [1, 10]).
func (l Ladder) TitleFor(want float64) string {
	if len(l) == 0 {
		return ""
	}
	best, bestD := 0, -1.0
	for i := range l {
		d := abs(scaleToTen(i, len(l)) - want)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return l[best]
}

func scaleToTen(i, n int) float64 {
	if n == 1 {
		return 10
	}
	return 1 + 9*float64(i)/float64(n-1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Employers provides flavour text for generated pages.
var Employers = []string{
	"Deutsche Bank", "Verizon", "NYU", "Microsoft", "Penn State University",
	"Goldman Sachs", "IBM", "Cornell University", "General Electric", "Pfizer",
}
