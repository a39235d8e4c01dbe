package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"melissa/internal/atomicfile"
)

// Checkpointer persists client solver state so restarts resume mid-run
// instead of recomputing from step zero (§3.1: "If the client simulation
// code supports checkpointing, it can be enabled so the client will restart
// from the last checkpoint only").
type Checkpointer interface {
	// Save records the field after the given (1-based) step.
	Save(simID, step int, field []float64) error
	// Load returns the most recent checkpoint, or step 0 when none exists.
	Load(simID int) (step int, field []float64, err error)
}

// FileCheckpointer stores one checkpoint file per simulation under Dir,
// written atomically (atomicfile.Write). Every controls the save cadence:
// a checkpoint is written every Every steps (default 1).
type FileCheckpointer struct {
	Dir   string
	Every int
}

func (f *FileCheckpointer) path(simID int) string {
	return filepath.Join(f.Dir, fmt.Sprintf("sim-%d.ckpt", simID))
}

// Save implements Checkpointer.
func (f *FileCheckpointer) Save(simID, step int, field []float64) error {
	every := f.Every
	if every <= 0 {
		every = 1
	}
	if step%every != 0 {
		return nil
	}
	buf := make([]byte, 8+8+8*len(field))
	binary.LittleEndian.PutUint64(buf, uint64(step))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(field)))
	for i, v := range field {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return atomicfile.Write(f.path(simID), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// Load implements Checkpointer.
func (f *FileCheckpointer) Load(simID int) (int, []float64, error) {
	data, err := os.ReadFile(f.path(simID))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 16 {
		return 0, nil, fmt.Errorf("client: corrupt checkpoint for sim %d", simID)
	}
	step := int(binary.LittleEndian.Uint64(data))
	n := int(binary.LittleEndian.Uint64(data[8:]))
	if len(data) != 16+8*n {
		return 0, nil, fmt.Errorf("client: corrupt checkpoint for sim %d: %d bytes for %d values", simID, len(data), n)
	}
	field := make([]float64, n)
	for i := range field {
		field[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16+8*i:]))
	}
	return step, field, nil
}
