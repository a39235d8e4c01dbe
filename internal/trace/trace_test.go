package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "Buffer", "GPUs", "MSE")
	tb.AddRow("Reservoir", 4, 65.0)
	tb.AddRow("FIFO", 1, 391.1234)
	out := tb.String()
	if !strings.Contains(out, "== Table 1 ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "Buffer") || !strings.Contains(lines[1], "MSE") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "Reservoir") || !strings.Contains(out, "391.1") {
		t.Fatalf("rows missing:\n%s", out)
	}
	// Columns aligned: "GPUs" column position identical in both data rows.
	h := strings.Index(lines[1], "GPUs")
	if lines[3][h] == ' ' && lines[4][h] == ' ' {
		t.Fatalf("column alignment broken:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.csv")
	err := WriteCSV(path, []string{"t", "v"}, []float64{1, 2, 3}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "t,v\n1,10\n2,20\n3,30\n"
	if string(data) != want {
		t.Fatalf("csv = %q", data)
	}
}

func TestWriteCSVValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := WriteCSV(path, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Fatal("expected name/column mismatch error")
	}
	if err := WriteCSV(path, []string{"a", "b"}, []float64{1, 2}, []float64{3}); err == nil {
		t.Fatal("expected ragged column error")
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
