// Package report renders FRED runs, sweeps and attack assessments as
// human-readable text and Markdown — the artifact a data publisher would
// attach to a release decision. It is presentation-only: all numbers come
// from internal/core, internal/metrics and internal/risk.
package report

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/risk"
)

// Options configures rendering.
type Options struct {
	// Markdown emits GitHub-flavoured Markdown tables; the default is
	// aligned plain text.
	Markdown bool
	// Title heads the report.
	Title string
}

// WriteSweep renders the level sweep — the data behind Figures 4–7.
func WriteSweep(w io.Writer, levels []core.LevelResult, opts Options) error {
	if len(levels) == 0 {
		return errors.New("report: empty sweep")
	}
	if err := writeTitle(w, opts, "Anonymization level sweep"); err != nil {
		return err
	}
	head := []string{"k", "P∘P' (before)", "P∘P̂ (after)", "gain G", "utility U", "candidate"}
	rows := make([][]string, len(levels))
	for i, lr := range levels {
		mark := ""
		if lr.Candidate {
			mark = "yes"
		}
		rows[i] = []string{
			fmt.Sprintf("%d", lr.K),
			fmt.Sprintf("%.6g", lr.Before),
			fmt.Sprintf("%.6g", lr.After),
			fmt.Sprintf("%.6g", lr.Gain),
			fmt.Sprintf("%.6g", lr.Utility),
			mark,
		}
	}
	return writeTable(w, head, rows, opts)
}

// WriteFRED renders a full Algorithm 1 result: the sweep, the solution
// space with H, and the chosen level.
func WriteFRED(w io.Writer, res *core.Result, opts Options) error {
	if res == nil {
		return errors.New("report: nil result")
	}
	if err := WriteSweep(w, res.Levels, opts); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := writeTitle(w, opts, "Solution space (Figure 8)"); err != nil {
		return err
	}
	head := []string{"k", "H"}
	rows := make([][]string, len(res.Candidates))
	for i, li := range res.Candidates {
		rows[i] = []string{
			fmt.Sprintf("%d", res.Levels[li].K),
			fmt.Sprintf("%.4f", res.H[i]),
		}
	}
	if err := writeTable(w, head, rows, opts); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nOptimal anonymization level: k = %d (H = %.4f)\n", res.OptimalK, res.Hmax)
	return err
}

// WriteAssessment renders a record-level disclosure risk report.
func WriteAssessment(w io.Writer, a *risk.Assessment, opts Options) error {
	if a == nil {
		return errors.New("report: nil assessment")
	}
	if err := writeTitle(w, opts, "Disclosure risk"); err != nil {
		return err
	}
	head := []string{"metric", "value"}
	rows := [][]string{
		{"records", fmt.Sprintf("%d", a.Records)},
		{"±10% breach rate", fmt.Sprintf("%.0f%%", 100*a.Breach10)},
		{"±20% breach rate", fmt.Sprintf("%.0f%%", 100*a.Breach20)},
		{"income-class hit rate", fmt.Sprintf("%.0f%%", 100*a.Class3)},
		{"midpoint-baseline class hit", fmt.Sprintf("%.0f%%", 100*a.BaselineClass3)},
		{"rank exposure (Spearman)", fmt.Sprintf("%.2f", a.Rank)},
	}
	return writeTable(w, head, rows, opts)
}

func writeTitle(w io.Writer, opts Options, def string) error {
	title := opts.Title
	if title == "" {
		title = def
	}
	var err error
	if opts.Markdown {
		_, err = fmt.Fprintf(w, "## %s\n\n", title)
	} else {
		_, err = fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len([]rune(title))))
	}
	return err
}

func writeTable(w io.Writer, head []string, rows [][]string, opts Options) error {
	for _, r := range rows {
		if len(r) != len(head) {
			return fmt.Errorf("report: row has %d cells, header has %d", len(r), len(head))
		}
	}
	if opts.Markdown {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(head, " | ")); err != nil {
			return err
		}
		seps := make([]string, len(head))
		for i := range seps {
			seps[i] = "---"
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
				return err
			}
		}
		return nil
	}
	widths := make([]int, len(head))
	for i, h := range head {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, c := range r {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len([]rune(c)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(head); err != nil {
		return err
	}
	for _, r := range rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}
