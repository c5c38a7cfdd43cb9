package stats

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table used to print the paper's
// figures and tables as rows/series. Cells are strings; numeric helpers
// format consistently.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// NewTable returns a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form footnote printed below the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// F formats a float for table cells with sensible precision.
func F(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// F2 formats a float with exactly two decimals (speedup-style cells).
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// Pct formats a fraction (0..1) as a percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// I formats an integer-valued count.
func I(x uint64) string { return fmt.Sprintf("%d", x) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown (piccolo-bench's
// -md report, one table per DESIGN.md §4 experiment).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	if len(t.Header) > 0 {
		b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = "---"
		}
		b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	}
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
