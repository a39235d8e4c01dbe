// Package trace writes experiment outputs: aligned text tables matching the
// paper's table layout, and CSV series files for the figures. The bench
// harness prints tables to stdout and optionally dumps CSVs next to the
// binary for plotting.
package trace

import (
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// WriteCSV writes named columns of equal length to path.
func WriteCSV(path string, names []string, cols ...[]float64) error {
	if len(names) != len(cols) {
		return fmt.Errorf("trace: %d names for %d columns", len(names), len(cols))
	}
	n := 0
	for i, c := range cols {
		if i == 0 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("trace: column %q has %d rows, want %d", names[i], len(c), n)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, strings.Join(names, ",")); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		parts := make([]string, len(cols))
		for c := range cols {
			parts[c] = fmt.Sprintf("%g", cols[c][r])
		}
		if _, err := fmt.Fprintln(f, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}
