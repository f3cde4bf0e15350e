package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/risk"
)

func sampleLevels() []core.LevelResult {
	return []core.LevelResult{
		{K: 2, Before: 6.4e8, After: 3.3e8, Gain: 3.1e8, Utility: 0.0125, Candidate: false},
		{K: 3, Before: 6.4e8, After: 3.4e8, Gain: 3.0e8, Utility: 0.0081, Candidate: true},
	}
}

func TestWriteSweepText(t *testing.T) {
	var b strings.Builder
	if err := WriteSweep(&b, sampleLevels(), Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Anonymization level sweep", "P∘P̂", "yes", "0.0125"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Plain text has no Markdown pipes.
	if strings.Contains(out, "| k |") {
		t.Error("text mode emitted markdown")
	}
}

func TestWriteSweepMarkdown(t *testing.T) {
	var b strings.Builder
	if err := WriteSweep(&b, sampleLevels(), Options{Markdown: true, Title: "Custom"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "## Custom") {
		t.Errorf("missing markdown title:\n%s", out)
	}
	if !strings.Contains(out, "| --- |") {
		t.Errorf("missing separator row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Errorf("markdown lines = %d:\n%s", len(lines), out)
	}
}

func TestWriteSweepEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteSweep(&b, nil, Options{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestWriteFRED(t *testing.T) {
	res := &core.Result{
		Levels:     sampleLevels(),
		H:          []float64{0.93},
		Candidates: []int{1},
		OptimalK:   3,
		Hmax:       0.93,
	}
	var b strings.Builder
	if err := WriteFRED(&b, res, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Solution space", "Optimal anonymization level: k = 3", "0.9300"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := WriteFRED(&b, nil, Options{}); err == nil {
		t.Error("nil result accepted")
	}
}

func TestWriteAssessment(t *testing.T) {
	a := &risk.Assessment{
		Records: 40, Breach10: 0.45, Breach20: 0.75,
		Class3: 0.62, BaselineClass3: 0.62, Rank: 0.96,
	}
	var b strings.Builder
	if err := WriteAssessment(&b, a, Options{Markdown: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"45%", "75%", "0.96", "Disclosure risk"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := WriteAssessment(&b, nil, Options{}); err == nil {
		t.Error("nil assessment accepted")
	}
}

func TestTextAlignment(t *testing.T) {
	var b strings.Builder
	if err := WriteAssessment(&b, &risk.Assessment{Records: 7}, Options{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// Header underline matches title length.
	if len(lines) < 3 || len(lines[1]) != len([]rune(lines[0])) {
		t.Errorf("underline mismatch:\n%s", b.String())
	}
}
