package nn

import "melissa/internal/tensor"

// scratch is one activation buffer of a layer: storage for the most rows
// any call has asked for, handed out as a view of its first rows. Row
// counts come and go — the training batch, its tail, validation chunks, a
// serve batch of any size up to a replica's MaxBatch — and none of them
// allocates once the largest has been seen.
type scratch struct {
	full, view tensor.Matrix
}

// get returns a rows×cols matrix whose contents are whatever the previous
// use left; callers overwrite every element. The matrix is valid until the
// next get on this scratch.
func (s *scratch) get(rows, cols int) *tensor.Matrix {
	if s.full.Cols != cols || s.full.Rows < rows {
		s.full = *tensor.New(rows, cols)
	}
	s.full.ViewRows(&s.view, 0, rows)
	return &s.view
}
