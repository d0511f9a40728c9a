// Package report renders experiment results as aligned ASCII tables,
// markdown, or CSV — the textual equivalent of the paper's figures.
package report

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Table is one figure/table worth of results.
type Table struct {
	ID      string // experiment id, e.g. "fig4a"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string // free-form footer lines (averages, paper values)
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footer line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns. Rows may carry more
// cells than Columns (and vice versa): widths grow to the widest row.
func (t *Table) String() string {
	ncols := len(t.Columns)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	return b.String()
}

// Prefixed renders the table with every line prefixed — the shape the
// CLIs use to put diagnostic tables on stderr as comment blocks (e.g.
// "# ") without disturbing the machine-readable stdout stream.
func (t *Table) Prefixed(prefix string) string {
	s := strings.TrimRight(t.String(), "\n")
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 comma-separated values: cells
// containing commas, quotes, or newlines are quoted. Notes are appended
// as single-cell records prefixed "# ", so readers configured with
// Comment = '#' skip them and recover the pure data.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Columns)
	for _, row := range t.Rows {
		w.Write(row)
	}
	w.Flush()
	for _, n := range t.Notes {
		// Raw, not through the csv writer: quoting would hide the '#'
		// behind a '"' and the line would stop reading as a comment.
		b.WriteString("# " + strings.ReplaceAll(n, "\n", " ") + "\n")
	}
	return b.String()
}

// Ratio formats a multiplicative factor.
func Ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
