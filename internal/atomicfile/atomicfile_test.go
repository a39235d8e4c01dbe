package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteKeepsPreviousOnFailure: an encode that fails part-way leaves the
// committed file as it was and no temporary file behind, so a crash or a
// full disk while a manifest, shard, client checkpoint or published
// surrogate is written never costs the previous one.
func TestWriteKeepsPreviousOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	write := func(s string, fail error) error {
		return Write(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := write("half a seco", boom); !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the encode error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("file after a failed write: %q, %v; want %q", got, err, "first")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %d files behind, want only the committed one", len(entries))
	}
	if err := write("second", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("file after a second write: %q", got)
	}
}
