package web

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

func fourProfiles() []Profile {
	// The paper's Table IV: Alice (CEO, 3560), Bob (Manager, 1200),
	// Christine (Assistant, 720), Robert (CEO, 5430).
	return []Profile{
		{Name: "Alice Johnson", Seniority: 10, Property: 3560, Employer: "Deutsche Bank"},
		{Name: "Bob Smith", Seniority: 4, Property: 1200, Employer: "Verizon"},
		{Name: "Christine Lee", Seniority: 1, Property: 720, Employer: "NYU"},
		{Name: "Robert Brown", Seniority: 10, Property: 5430, Employer: "Microsoft"},
	}
}

func TestLadderScore(t *testing.T) {
	s, ok := CorporateLadder.Score("CEO")
	if !ok || s != 10 {
		t.Errorf("CEO = %g, %v", s, ok)
	}
	s, ok = CorporateLadder.Score("assistant")
	if !ok || s != 1 {
		t.Errorf("assistant = %g, %v", s, ok)
	}
	if _, ok := CorporateLadder.Score("Janitor"); ok {
		t.Error("unknown title scored")
	}
	// Score and TitleFor round-trip.
	for _, title := range CorporateLadder {
		s, ok := CorporateLadder.Score(title)
		if !ok {
			t.Fatalf("ladder title %q unscored", title)
		}
		if got := CorporateLadder.TitleFor(s); got != title {
			t.Errorf("TitleFor(Score(%q)) = %q", title, got)
		}
	}
	for _, title := range AcademicLadder {
		if _, ok := AcademicLadder.Score(title); !ok {
			t.Errorf("academic title %q unscored", title)
		}
	}
	if got := (Ladder{}).TitleFor(5); got != "" {
		t.Errorf("empty ladder TitleFor = %q", got)
	}
	if got := (Ladder{"Only"}).TitleFor(3); got != "Only" {
		t.Errorf("singleton ladder = %q", got)
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	opts := GenOptions{Seed: 5, Distractors: 10, PropertyNoise: 0.1, NameTypoProb: 0.3}
	c1, err := BuildCorpus(fourProfiles(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCorpus(fourProfiles(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Len() != c2.Len() || c1.Len() != 14 {
		t.Fatalf("lens = %d, %d", c1.Len(), c2.Len())
	}
	for i := 0; i < c1.Len(); i++ {
		if c1.pages[i] != c2.pages[i] {
			t.Fatalf("page %d differs between same-seed corpora", i)
		}
	}
}

func TestBuildCorpusValidation(t *testing.T) {
	if _, err := BuildCorpus([]Profile{{}}, GenOptions{}); err == nil {
		t.Error("nameless profile accepted")
	}
	if _, err := BuildCorpus(nil, GenOptions{MissingProperty: 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := BuildCorpus(nil, GenOptions{PropertyNoise: -1}); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := BuildCorpus(nil, GenOptions{Distractors: -2}); err == nil {
		t.Error("negative distractors accepted")
	}
}

func TestSearchFindsSubject(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 1, Distractors: 50})
	if err != nil {
		t.Fatal(err)
	}
	hits := c.Search("Christine Lee", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if !strings.Contains(hits[0].Page.Title, "Christine") {
		t.Errorf("top hit = %q", hits[0].Page.Title)
	}
	if c.Search("", 3) != nil {
		t.Error("empty query returned hits")
	}
	if c.Search("christine", 0) != nil {
		t.Error("limit 0 returned hits")
	}
	if got := c.Search("zzzznotindexed", 5); got != nil {
		t.Errorf("miss returned %v", got)
	}
}

func TestSearchRanksRareTokensHigher(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 2, Distractors: 30})
	if err != nil {
		t.Fatal(err)
	}
	// "Homepage" appears on every profile; "Robert" on one. A query with
	// both must rank Robert's page first.
	hits := c.Search("Robert homepage", 5)
	if len(hits) == 0 || !strings.Contains(hits[0].Page.Title, "Robert") {
		t.Errorf("hits[0] = %+v", hits)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! x2 (test)")
	want := []string{"hello", "world", "x2", "test"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 {
		t.Error("empty input tokenized")
	}
}

func TestExtractRoundTrip(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := Extract(c.pages[0], CorporateLadder)
	if !ok {
		t.Fatal("profile page not recognized")
	}
	if e.Name != "Alice Johnson" || !e.HasTitle || e.Seniority != 10 || !e.HasProperty || e.Property != 3560 {
		t.Errorf("entity = %+v", e)
	}
	if e.Title != "CEO" || !strings.Contains(e.Employment, "Deutsche Bank") {
		t.Errorf("employment = %q / %q", e.Title, e.Employment)
	}
	// Distractor pages do not extract.
	c2, err := BuildCorpus(nil, GenOptions{Seed: 3, Distractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Extract(c2.pages[0], CorporateLadder); ok {
		t.Error("distractor extracted as entity")
	}
}

func TestExtractMissingAttributes(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 4, MissingEmployment: 1, MissingProperty: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := Extract(c.pages[1], CorporateLadder)
	if !ok {
		t.Fatal("page not recognized")
	}
	if e.HasTitle || e.HasProperty {
		t.Errorf("attributes extracted from bare page: %+v", e)
	}
}

func TestGatherBuildsTableIV(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 6, Distractors: 20})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Alice Johnson", "Bob Smith", "Christine Lee", "Robert Brown"}
	q, err := Gather(c, names, CorporateLadder, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 4 {
		t.Fatalf("rows = %d", q.NumRows())
	}
	// Row order matches the roster.
	for i, n := range names {
		if got, _ := q.Cell(i, 0).Text(); got != n {
			t.Errorf("row %d name = %q, want %q", i, got, n)
		}
	}
	// Clean corpus: every attribute present with exact values.
	wantSeniority := []float64{10, 4, 1, 10}
	wantProperty := []float64{3560, 1200, 720, 5430}
	sCol := q.Schema().MustLookup("Seniority")
	pCol := q.Schema().MustLookup("PropertyHoldings")
	for i := range names {
		if got := q.Cell(i, sCol).MustFloat(); got != wantSeniority[i] {
			t.Errorf("row %d seniority = %g, want %g", i, got, wantSeniority[i])
		}
		if got := q.Cell(i, pCol).MustFloat(); got != wantProperty[i] {
			t.Errorf("row %d property = %g, want %g", i, got, wantProperty[i])
		}
	}
}

func TestGatherWithTyposStillLinks(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 7, NameTypoProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Alice Johnson", "Bob Smith", "Christine Lee", "Robert Brown"}
	q, err := Gather(c, names, CorporateLadder, nil)
	if err != nil {
		t.Fatal(err)
	}
	sCol := q.Schema().MustLookup("Seniority")
	var linked int
	for i := range names {
		if !q.Cell(i, sCol).IsNull() {
			linked++
		}
	}
	// Single-typo names should still mostly link through Jaro-Winkler.
	if linked < 3 {
		t.Errorf("only %d of 4 typo'd profiles linked", linked)
	}
}

func TestGatherUnknownPersonYieldsNulls(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Gather(c, []string{"Zebulon Pike"}, CorporateLadder, nil)
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < q.NumCols(); col++ {
		if !q.Cell(0, col).IsNull() {
			t.Errorf("column %d not null for unknown person", col)
		}
	}
}

func TestDirectoryPages(t *testing.T) {
	c, err := BuildCorpus(fourProfiles(), GenOptions{Seed: 9, DirectoryPages: true, DirectoryPageSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 4 profiles + 2 directory pages (3 + 1).
	if c.Len() != 6 {
		t.Fatalf("corpus = %d pages", c.Len())
	}
	dir := c.pages[4]
	if !strings.Contains(dir.Title, "Staff Directory") {
		t.Fatalf("page 4 = %q", dir.Title)
	}
	ents := ExtractAll(dir, CorporateLadder)
	if len(ents) != 3 {
		t.Fatalf("directory extracted %d entities", len(ents))
	}
	if ents[0].Name != "Alice Johnson" || !ents[0].HasTitle || ents[0].Seniority != 10 {
		t.Errorf("entity 0 = %+v", ents[0])
	}
	if ents[0].HasProperty {
		t.Error("directory lines must not carry property holdings")
	}
	// A profile page still extracts exactly one entity through ExtractAll.
	if got := ExtractAll(c.pages[0], CorporateLadder); len(got) != 1 {
		t.Errorf("profile ExtractAll = %d entities", len(got))
	}
}

func TestGatherMergesDirectoryAndHomepage(t *testing.T) {
	// Employment lives only in the directory (missing from homepages);
	// property lives only on homepages. Gather must merge both sources.
	c, err := BuildCorpus(fourProfiles(), GenOptions{
		Seed: 10, MissingEmployment: 1, DirectoryPages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Alice Johnson", "Bob Smith", "Christine Lee", "Robert Brown"}
	q, err := Gather(c, names, CorporateLadder, nil)
	if err != nil {
		t.Fatal(err)
	}
	sCol := q.Schema().MustLookup("Seniority")
	pCol := q.Schema().MustLookup("PropertyHoldings")
	for i := range names {
		if q.Cell(i, sCol).IsNull() {
			t.Errorf("row %d: seniority missing despite directory page", i)
		}
		if q.Cell(i, pCol).IsNull() {
			t.Errorf("row %d: property missing despite homepage", i)
		}
	}
}

func TestQSchemaClasses(t *testing.T) {
	s := QSchema()
	if s.Column(0).Class != dataset.Identifier {
		t.Error("Name should be an identifier")
	}
	if len(s.IndicesOf(dataset.QuasiIdentifier)) != 3 {
		t.Error("want 3 QI columns")
	}
}
