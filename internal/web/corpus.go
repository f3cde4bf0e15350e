package web

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Profile is the ground truth about one individual from which profile pages
// are generated. Seniority is a 1..10 score; Property is a holdings index
// (the paper's Table IV shows values like 3560, 1200, 720, 5430).
type Profile struct {
	Name      string
	Seniority float64
	Property  float64
	// Ladder selects the title vocabulary (academic vs corporate). Nil
	// defaults to CorporateLadder.
	Ladder Ladder
	// Employer is optional flavour; one is chosen deterministically when
	// empty.
	Employer string
}

// Page is one synthetic web document.
type Page struct {
	URL   string
	Title string
	Body  string
}

// GenOptions controls corpus generation noise — the knobs the paper leaves
// implicit in "data collected from employee web pages and external links".
type GenOptions struct {
	// DirectoryPages adds staff-directory pages, each listing a run of
	// DirectoryPageSize individuals ("external links" in the paper's
	// wording: the same facts reachable through a second page format).
	// Directory lines carry employment but never property holdings.
	DirectoryPages bool
	// DirectoryPageSize is the number of individuals per directory page
	// (default 8).
	DirectoryPageSize int

	// Seed drives all randomness; corpora are deterministic per seed.
	Seed int64
	// MissingEmployment is the probability a page omits the employment line.
	MissingEmployment float64
	// MissingProperty is the probability a page omits the property line.
	MissingProperty float64
	// NameTypoProb is the probability the page spells the subject's name
	// with a single typo (exercises approximate linkage).
	NameTypoProb float64
	// PropertyNoise is the relative noise amplitude on published property
	// values: the page shows value·(1 + u), u uniform in ±PropertyNoise.
	PropertyNoise float64
	// Distractors is the number of unrelated pages mixed into the corpus.
	Distractors int
}

// Corpus is a searchable collection of pages.
type Corpus struct {
	pages []Page
	index map[string][]int // token → page ids (sorted, unique)
}

// BuildCorpus generates one profile page per individual plus distractors,
// and indexes everything.
func BuildCorpus(profiles []Profile, opts GenOptions) (*Corpus, error) {
	if opts.MissingEmployment < 0 || opts.MissingEmployment > 1 ||
		opts.MissingProperty < 0 || opts.MissingProperty > 1 ||
		opts.NameTypoProb < 0 || opts.NameTypoProb > 1 {
		return nil, fmt.Errorf("web: probabilities must be in [0, 1]")
	}
	if opts.PropertyNoise < 0 || opts.Distractors < 0 {
		return nil, fmt.Errorf("web: negative noise or distractor count")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	c := &Corpus{index: make(map[string][]int)}
	for i, p := range profiles {
		if p.Name == "" {
			return nil, fmt.Errorf("web: profile %d has no name", i)
		}
		ladder := p.Ladder
		if ladder == nil {
			ladder = CorporateLadder
		}
		employer := p.Employer
		if employer == "" {
			employer = Employers[rng.Intn(len(Employers))]
		}
		displayName := p.Name
		if rng.Float64() < opts.NameTypoProb {
			displayName = typo(rng, displayName)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Homepage of %s.\n", displayName)
		if rng.Float64() >= opts.MissingEmployment {
			fmt.Fprintf(&b, "Employment: %s, %s.\n", ladder.TitleFor(p.Seniority), employer)
		}
		if rng.Float64() >= opts.MissingProperty {
			noisy := p.Property
			if opts.PropertyNoise > 0 {
				noisy *= 1 + (rng.Float64()*2-1)*opts.PropertyNoise
			}
			fmt.Fprintf(&b, "Property holdings: %.0f.\n", noisy)
		}
		fmt.Fprintf(&b, "Contact and recent activity are listed below.\n")
		c.add(Page{
			URL:   fmt.Sprintf("http://people.example.org/%03d", i),
			Title: displayName + " - Personal Homepage",
			Body:  b.String(),
		})
	}
	if opts.DirectoryPages {
		size := opts.DirectoryPageSize
		if size <= 0 {
			size = 8
		}
		for start := 0; start < len(profiles); start += size {
			end := start + size
			if end > len(profiles) {
				end = len(profiles)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Staff directory, page %d.\n", start/size+1)
			for _, p := range profiles[start:end] {
				ladder := p.Ladder
				if ladder == nil {
					ladder = CorporateLadder
				}
				fmt.Fprintf(&b, "Listing: %s — %s.\n", p.Name, ladder.TitleFor(p.Seniority))
			}
			c.add(Page{
				URL:   fmt.Sprintf("http://directory.example.org/page/%03d", start/size),
				Title: fmt.Sprintf("Staff Directory %d", start/size+1),
				Body:  b.String(),
			})
		}
	}
	for d := 0; d < opts.Distractors; d++ {
		c.add(Page{
			URL:   fmt.Sprintf("http://blog.example.org/post/%04d", d),
			Title: fmt.Sprintf("Notes on topic %d", rng.Intn(1000)),
			Body: fmt.Sprintf("A discussion of subject %d with no personal data. Weather was %d degrees.\n",
				rng.Intn(500), 50+rng.Intn(40)),
		})
	}
	return c, nil
}

func (c *Corpus) add(p Page) {
	id := len(c.pages)
	c.pages = append(c.pages, p)
	seen := make(map[string]bool)
	for _, tok := range Tokenize(p.Title + " " + p.Body) {
		if !seen[tok] {
			seen[tok] = true
			c.index[tok] = append(c.index[tok], id)
		}
	}
}

// Len returns the number of pages.
func (c *Corpus) Len() int { return len(c.pages) }

// Tokenize lower-cases and splits on non-alphanumerics.
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Result is a scored search hit.
type Result struct {
	Page  Page
	Score float64
}

// Search returns up to limit pages ranked by query-token hit count weighted
// by inverse document frequency, ties broken by page id. An empty query or
// no hits yields nil.
func (c *Corpus) Search(query string, limit int) []Result {
	tokens := Tokenize(query)
	if len(tokens) == 0 || limit <= 0 {
		return nil
	}
	scores := make(map[int]float64)
	n := float64(len(c.pages))
	for _, tok := range tokens {
		ids := c.index[tok]
		if len(ids) == 0 {
			continue
		}
		idf := 1.0
		if n > 0 {
			idf = 1 + (n-float64(len(ids)))/n // rare tokens weigh ~2, ubiquitous ~1
		}
		for _, id := range ids {
			scores[id] += idf
		}
	}
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) == 0 {
		return nil
	}
	if len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{Page: c.pages[id], Score: scores[id]}
	}
	return out
}

// typo applies one random edit: swap two adjacent letters or drop one.
func typo(rng *rand.Rand, s string) string {
	runes := []rune(s)
	if len(runes) < 3 {
		return s
	}
	i := 1 + rng.Intn(len(runes)-2)
	if rng.Intn(2) == 0 {
		runes[i], runes[i+1] = runes[i+1], runes[i]
		return string(runes)
	}
	return string(runes[:i]) + string(runes[i+1:])
}
