package dataset

import (
	"errors"
	"os"
	"testing"

	"melissa/internal/buffer"
)

func writeTestSim(t *testing.T, dir string, simID, steps, inputDim, fieldDim int) {
	t.Helper()
	w, err := Create(dir, simID, steps, inputDim, fieldDim)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= steps; s++ {
		input := make([]float32, inputDim)
		field := make([]float32, fieldDim)
		for i := range input {
			input[i] = float32(simID*1000 + s*10 + i)
		}
		for i := range field {
			field[i] = float32(simID*100000 + s*100 + i)
		}
		if err := w.WriteStep(input, field); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	writeTestSim(t, dir, 3, 5, 2, 4)
	r, err := Open(FilePath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.SimID != 3 || r.Steps != 5 || r.InputDim != 2 || r.FieldDim != 4 {
		t.Fatalf("header %+v", r)
	}
	// Random access, out of order.
	for _, step := range []int{4, 1, 5, 2, 3} {
		s, err := r.ReadStep(step)
		if err != nil {
			t.Fatal(err)
		}
		if s.SimID != 3 || s.Step != step {
			t.Fatalf("sample %+v", s)
		}
		if s.Input[0] != float32(3000+step*10) || s.Output[2] != float32(300000+step*100+2) {
			t.Fatalf("payload mismatch: %+v", s)
		}
	}
}

func TestReadStepBounds(t *testing.T) {
	dir := t.TempDir()
	writeTestSim(t, dir, 0, 3, 1, 1)
	r, err := Open(FilePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadStep(0); err == nil {
		t.Fatal("expected error for step 0")
	}
	if _, err := r.ReadStep(4); err == nil {
		t.Fatal("expected error for step past end")
	}
}

func TestWriterDimAndCountValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep([]float32{1}, []float32{1, 2, 3}); err == nil {
		t.Fatal("expected dim error")
	}
	ok2 := []float32{1, 2}
	ok3 := []float32{1, 2, 3}
	if err := w.WriteStep(ok2, ok3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(ok2, ok3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(ok2, ok3); err == nil {
		t.Fatal("expected overflow error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDetectsIncomplete(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteStep([]float32{1}, []float32{1})
	if err := w.Close(); err == nil {
		t.Fatal("expected incompleteness error")
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	// Garbage magic.
	bad := FilePath(dir, 9)
	os.WriteFile(bad, []byte("garbage-file-contents........"), 0o644)
	if _, err := Open(bad); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncated payload.
	writeTestSim(t, dir, 1, 4, 2, 2)
	path := FilePath(dir, 1)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-4], 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestOpenDirIndexesEverything(t *testing.T) {
	dir := t.TempDir()
	for sim := 0; sim < 4; sim++ {
		writeTestSim(t, dir, sim, 6, 2, 3)
	}
	ds, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Len() != 24 || ds.Sims() != 4 {
		t.Fatalf("len %d sims %d", ds.Len(), ds.Sims())
	}
	if ds.Bytes() <= 0 {
		t.Fatal("byte size not recorded")
	}
	// Every index resolves and the (sim, step) pairs are all distinct.
	seen := map[buffer.Key]bool{}
	for i := 0; i < ds.Len(); i++ {
		s, err := ds.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Key()] {
			t.Fatalf("duplicate %v", s.Key())
		}
		seen[s.Key()] = true
	}
	if _, err := ds.Get(-1); err == nil {
		t.Fatal("expected bounds error")
	}
	if _, err := ds.Get(24); err == nil {
		t.Fatal("expected bounds error")
	}
}

func TestOpenDirEmpty(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("expected error for empty directory")
	}
}

func TestLoaderEpochCoversDatasetOnce(t *testing.T) {
	dir := t.TempDir()
	for sim := 0; sim < 3; sim++ {
		writeTestSim(t, dir, sim, 7, 2, 2)
	}
	ds, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l := NewLoader(ds, 4, 3, 1)
	if l.BatchesPerEpoch() != 6 { // ceil(21/4)
		t.Fatalf("batches per epoch %d", l.BatchesPerEpoch())
	}
	counts := map[buffer.Key]int{}
	batches := 0
	err = l.Epoch(func(batch []buffer.Sample) error {
		batches++
		if len(batch) == 0 || len(batch) > 4 {
			t.Fatalf("batch size %d", len(batch))
		}
		for _, s := range batch {
			counts[s.Key()]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != 6 {
		t.Fatalf("batches %d, want 6", batches)
	}
	if len(counts) != 21 {
		t.Fatalf("unique %d, want 21", len(counts))
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("sample %v appeared %d times in one epoch", k, c)
		}
	}
}

func TestLoaderShufflesBetweenEpochs(t *testing.T) {
	dir := t.TempDir()
	writeTestSim(t, dir, 0, 32, 1, 1)
	ds, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l := NewLoader(ds, 32, 2, 7)
	order := func() []int {
		var steps []int
		l.Epoch(func(batch []buffer.Sample) error {
			for _, s := range batch {
				steps = append(steps, s.Step)
			}
			return nil
		})
		return steps
	}
	a, b := order(), order()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two epochs produced identical order; shuffle broken")
	}
}

func TestLoaderDeterministicWithSeed(t *testing.T) {
	dir := t.TempDir()
	writeTestSim(t, dir, 0, 16, 1, 1)
	ds, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	order := func(seed uint64) []int {
		l := NewLoader(ds, 4, 4, seed)
		var steps []int
		l.Epoch(func(batch []buffer.Sample) error {
			for _, s := range batch {
				steps = append(steps, s.Step)
			}
			return nil
		})
		return steps
	}
	a, b := order(11), order(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different epoch order")
		}
	}
}

func TestLoaderPropagatesYieldError(t *testing.T) {
	dir := t.TempDir()
	writeTestSim(t, dir, 0, 10, 1, 1)
	ds, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sentinel := errors.New("stop")
	l := NewLoader(ds, 2, 2, 1)
	if err := l.Epoch(func([]buffer.Sample) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

// BatchesPerEpoch returns the number of batches one epoch yields.
func (l *Loader) BatchesPerEpoch() int {
	return (l.ds.Len() + l.batch - 1) / l.batch
}
