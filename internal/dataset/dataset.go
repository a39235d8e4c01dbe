// Package dataset implements the offline training baseline of §4.6: the
// ensemble data is written to disk as one binary file per simulation, read
// back with random access (the paper mmaps "to read only the requested
// time step without having to load the entire file in memory"), and served
// to the trainer by a multi-worker DataLoader that shuffles indices every
// epoch.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"melissa/internal/buffer"
)

const (
	fileMagic   = "MLDS"
	fileVersion = 1
)

// header layout after the magic: version u32 | simID u32 | steps u32 |
// inputDim u32 | fieldDim u32. Records follow: per step, inputDim f32 then
// fieldDim f32, fixed stride → O(1) seeks.
const headerSize = 4 + 5*4

// Writer streams one simulation into its file.
type Writer struct {
	f        *os.File
	w        *bufio.Writer
	simID    int
	steps    int
	inputDim int
	fieldDim int
	written  int
}

// Create opens the per-simulation file under dir.
func Create(dir string, simID, steps, inputDim, fieldDim int) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(FilePath(dir, simID))
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<20), simID: simID, steps: steps, inputDim: inputDim, fieldDim: fieldDim}
	if _, err := w.w.WriteString(fileMagic); err != nil {
		return nil, err
	}
	for _, v := range []uint32{fileVersion, uint32(simID), uint32(steps), uint32(inputDim), uint32(fieldDim)} {
		if err := binary.Write(w.w, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// FilePath returns the canonical file name for a simulation.
func FilePath(dir string, simID int) string {
	return filepath.Join(dir, fmt.Sprintf("sim-%06d.bin", simID))
}

// WriteStep appends one time step; steps must be written in order.
func (w *Writer) WriteStep(input, field []float32) error {
	if len(input) != w.inputDim || len(field) != w.fieldDim {
		return fmt.Errorf("dataset: step dims %d/%d, want %d/%d", len(input), len(field), w.inputDim, w.fieldDim)
	}
	if w.written >= w.steps {
		return fmt.Errorf("dataset: sim %d already has %d steps", w.simID, w.steps)
	}
	if err := writeF32s(w.w, input); err != nil {
		return err
	}
	if err := writeF32s(w.w, field); err != nil {
		return err
	}
	w.written++
	return nil
}

// Close flushes and closes the file, verifying completeness.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if w.written != w.steps {
		return fmt.Errorf("dataset: sim %d wrote %d/%d steps", w.simID, w.written, w.steps)
	}
	return nil
}

// Reader provides random access to one simulation file.
type Reader struct {
	f        *os.File
	SimID    int
	Steps    int
	InputDim int
	FieldDim int
	stride   int64
}

// Open validates the header and prepares for seeks.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(f, head); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: reading header of %s: %w", path, err)
	}
	if string(head[:4]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("dataset: %s: bad magic", path)
	}
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(head[4+4*i:]) }
	if u32(0) != fileVersion {
		f.Close()
		return nil, fmt.Errorf("dataset: %s: unsupported version %d", path, u32(0))
	}
	r := &Reader{
		f:        f,
		SimID:    int(u32(1)),
		Steps:    int(u32(2)),
		InputDim: int(u32(3)),
		FieldDim: int(u32(4)),
	}
	r.stride = int64(4 * (r.InputDim + r.FieldDim))
	// Completeness check against the file size.
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := int64(headerSize) + int64(r.Steps)*r.stride; info.Size() != want {
		f.Close()
		return nil, fmt.Errorf("dataset: %s: size %d, want %d (truncated?)", path, info.Size(), want)
	}
	return r, nil
}

// ReadStep reads the (1-based) step without touching the rest of the file.
func (r *Reader) ReadStep(step int) (buffer.Sample, error) {
	if step < 1 || step > r.Steps {
		return buffer.Sample{}, fmt.Errorf("dataset: step %d outside [1,%d]", step, r.Steps)
	}
	buf := make([]byte, r.stride)
	off := int64(headerSize) + int64(step-1)*r.stride
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return buffer.Sample{}, err
	}
	s := buffer.Sample{SimID: r.SimID, Step: step}
	s.Input = decodeF32s(buf[:4*r.InputDim])
	s.Output = decodeF32s(buf[4*r.InputDim:])
	return s, nil
}

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

// Dataset indexes every simulation file in a directory.
type Dataset struct {
	readers []*Reader
	index   []ref // flattened (reader, step) pairs
	bytes   int64
}

type ref struct {
	reader int
	step   int
}

// Files returns the simulation files (sim-*.bin) under dir, sorted.
func Files(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "sim-*.bin"))
	sort.Strings(paths)
	return paths, err
}

// OpenDir opens every sim-*.bin under dir.
func OpenDir(dir string) (*Dataset, error) {
	paths, err := Files(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dataset: no simulation files under %s", dir)
	}
	d := &Dataset{}
	for _, p := range paths {
		r, err := Open(p)
		if err != nil {
			d.Close()
			return nil, err
		}
		info, err := os.Stat(p)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.bytes += info.Size()
		ri := len(d.readers)
		d.readers = append(d.readers, r)
		for s := 1; s <= r.Steps; s++ {
			d.index = append(d.index, ref{reader: ri, step: s})
		}
	}
	return d, nil
}

// Len returns the number of samples (time steps) in the dataset.
func (d *Dataset) Len() int { return len(d.index) }

// Bytes returns the on-disk dataset size (the paper reports 100 GB /
// 450 GB / 8 TB figures; ours scale with the grid).
func (d *Dataset) Bytes() int64 { return d.bytes }

// Sims returns the number of simulations.
func (d *Dataset) Sims() int { return len(d.readers) }

// Dims returns the per-sample input and field widths recorded in the file
// headers, so consumers can validate the dataset against their model
// before training on it.
func (d *Dataset) Dims() (inputDim, fieldDim int) {
	if len(d.readers) == 0 {
		return 0, 0
	}
	return d.readers[0].InputDim, d.readers[0].FieldDim
}

// Get reads sample i (0-based over the flattened index).
func (d *Dataset) Get(i int) (buffer.Sample, error) {
	if i < 0 || i >= len(d.index) {
		return buffer.Sample{}, fmt.Errorf("dataset: index %d outside [0,%d)", i, len(d.index))
	}
	ref := d.index[i]
	return d.readers[ref.reader].ReadStep(ref.step)
}

// Close closes every file.
func (d *Dataset) Close() error {
	var first error
	for _, r := range d.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func writeF32s(w io.Writer, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func decodeF32s(buf []byte) []float32 {
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}
