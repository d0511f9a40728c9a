package report_test

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/report"
)

func sample() *report.Table {
	t := &report.Table{
		ID:      "fig0",
		Title:   "sample",
		Columns: []string{"benchmark", "value"},
	}
	t.AddRow("lbm", 13.071)
	t.AddRow("gcc", 69)
	t.AddNote("average: %.1f", 41.0)
	return t
}

func TestASCIIRendering(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"== fig0: sample", "benchmark", "lbm", "13.07", "gcc", "69", "average: 41.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("ascii output missing %q:\n%s", want, s)
		}
	}
	// Column alignment: the header and rows share the first column width.
	lines := strings.Split(s, "\n")
	var hdr, row string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "benchmark") {
			hdr = ln
		}
		if strings.HasPrefix(ln, "lbm") {
			row = ln
		}
	}
	if strings.Index(hdr, "value") != strings.Index(row, "13.07") {
		t.Error("columns misaligned")
	}
}

func TestMarkdownRendering(t *testing.T) {
	s := sample().Markdown()
	for _, want := range []string{"### fig0: sample", "| benchmark | value |", "| --- | --- |", "| lbm | 13.07 |", "> average"} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q:\n%s", want, s)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	s := sample().CSV()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines:\n%s", len(lines), s)
	}
	if lines[0] != "benchmark,value" || lines[1] != "lbm,13.07" {
		t.Fatalf("csv content: %v", lines)
	}
	if lines[3] != "# average: 41.0" {
		t.Fatalf("notes must render as comment rows, got %q", lines[3])
	}
}

// TestCSVQuotingRoundTrip: cells with commas, quotes, and newlines must
// survive an encoding/csv round trip (RFC 4180), and note rows must be
// skipped by a '#'-comment reader so the data parses cleanly.
func TestCSVQuotingRoundTrip(t *testing.T) {
	tbl := &report.Table{
		ID:      "q",
		Title:   "quoting",
		Columns: []string{"name", "desc"},
	}
	tbl.AddRow("a,b", `say "hi"`)
	tbl.AddRow("multi\nline", "plain")
	tbl.AddNote("note with, comma and \"quotes\"")

	r := csv.NewReader(strings.NewReader(tbl.CSV()))
	r.Comment = '#'
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("generated CSV does not parse: %v\n%s", err, tbl.CSV())
	}
	want := [][]string{
		{"name", "desc"},
		{"a,b", `say "hi"`},
		{"multi\nline", "plain"},
	}
	if len(recs) != len(want) {
		t.Fatalf("parsed %d records, want %d: %q", len(recs), len(want), recs)
	}
	for i := range want {
		for j := range want[i] {
			if recs[i][j] != want[i][j] {
				t.Errorf("record[%d][%d] = %q, want %q", i, j, recs[i][j], want[i][j])
			}
		}
	}
	// The note is still present for human readers, as a comment row.
	if !strings.Contains(tbl.CSV(), "# note with, comma") {
		t.Fatalf("note missing from CSV:\n%s", tbl.CSV())
	}
}

// TestMarkdownStructure: the markdown output must be a single
// well-formed pipe table — every row renders exactly one line with the
// same cell count as the header, notes become blockquotes after the
// table, and an empty table still renders header and separator.
func TestMarkdownStructure(t *testing.T) {
	tbl := sample()
	tbl.AddNote("second note")
	lines := strings.Split(strings.TrimSpace(tbl.Markdown()), "\n")
	var tableLines, quoteLines []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "|") {
			tableLines = append(tableLines, ln)
		}
		if strings.HasPrefix(ln, "> ") {
			quoteLines = append(quoteLines, ln)
		}
	}
	// header + separator + 2 data rows
	if len(tableLines) != 4 {
		t.Fatalf("want 4 pipe lines, got %d:\n%s", len(tableLines), tbl.Markdown())
	}
	cols := strings.Count(tableLines[0], "|")
	for i, ln := range tableLines {
		if strings.Count(ln, "|") != cols {
			t.Errorf("line %d has a different cell count: %q", i, ln)
		}
	}
	if len(quoteLines) != 2 || quoteLines[1] != "> second note" {
		t.Fatalf("notes rendered wrong: %q", quoteLines)
	}

	empty := &report.Table{ID: "e", Title: "empty", Columns: []string{"a", "b"}}
	md := empty.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("empty table lost its header:\n%s", md)
	}
}

// TestCSVCommentRowsRoundTrip: a table carrying several notes must
// produce CSV whose data parses identically whether the reader skips
// '#' comments or the notes are filtered by hand — i.e. notes live only
// in comment rows and never contaminate the data records.
func TestCSVCommentRowsRoundTrip(t *testing.T) {
	tbl := sample()
	tbl.AddNote("geomean: %.2f", 2.5)
	raw := tbl.CSV()

	r := csv.NewReader(strings.NewReader(raw))
	r.Comment = '#'
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse with comment support: %v\n%s", err, raw)
	}
	if len(recs) != 3 { // header + 2 rows; both notes skipped
		t.Fatalf("want 3 records, got %d: %q", len(recs), recs)
	}
	if recs[0][0] != "benchmark" || recs[1][0] != "lbm" || recs[2][0] != "gcc" {
		t.Fatalf("data rows wrong: %q", recs)
	}
	// Both notes survive as comment rows for human readers.
	for _, want := range []string{"# average: 41.0", "# geomean: 2.50"} {
		if !strings.Contains(raw, want) {
			t.Errorf("CSV missing comment row %q:\n%s", want, raw)
		}
	}
}

// TestStringOverlongRow: AddRow with more cells than Columns used to
// panic with index out of range in writeRow; it must render every cell.
func TestStringOverlongRow(t *testing.T) {
	tbl := &report.Table{ID: "x", Title: "overlong", Columns: []string{"only"}}
	tbl.AddRow("a", "b", "c")
	tbl.AddRow("short")
	s := tbl.String()
	for _, want := range []string{"only", "a", "b", "c", "short"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFormatters(t *testing.T) {
	if report.Ratio(4.5) != "4.50x" {
		t.Fatal(report.Ratio(4.5))
	}
}

func TestPrefixed(t *testing.T) {
	tbl := &report.Table{ID: "x", Title: "t", Columns: []string{"a"}}
	tbl.AddRow("1")
	tbl.AddNote("note")
	out := tbl.Prefixed("# ")
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("Prefixed must end with a newline")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "# ") {
			t.Errorf("line %d not prefixed: %q", i, l)
		}
	}
	// Stripping the prefix recovers the plain rendering exactly.
	var recovered strings.Builder
	for _, l := range lines {
		recovered.WriteString(strings.TrimPrefix(l, "# "))
		recovered.WriteString("\n")
	}
	if recovered.String() != tbl.String() {
		t.Errorf("prefix not reversible:\n%q\nvs\n%q", recovered.String(), tbl.String())
	}
}
