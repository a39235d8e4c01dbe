package buffer

// Arena is a per-rank sample store: one contiguous slab of input rows and
// one of output rows, allocated in fixed-size chunks, with a free list of
// row slots. The Blocking wrapper copies incoming payloads into arena rows
// (PutCopy), policies then shuffle Sample values whose Input/Output slices
// alias those rows, and rows return to the free list the moment their
// sample permanently leaves the policy — eviction or consumption — so
// steady-state ingestion recycles a bounded set of rows in place instead
// of allocating per message.
//
// Chunked growth matters for correctness: rows are referenced by slices
// held inside policy containers, so existing chunks must never move.
// Growing appends a new chunk and leaves every issued row valid.
type Arena struct {
	inDim, outDim int
	chunkRows     int
	chunks        []arenaChunk
	free          []int32
	rows          int
}

type arenaChunk struct {
	in, out []float32
}

// arenaChunkRows is the default allocation granularity; ~512 heat-equation
// rows ≈ 2 MB of field data per chunk.
const arenaChunkRows = 512

// NewArena builds an arena for rows of the given widths, pre-allocating
// capacity for at least initialRows (rounded up to whole chunks).
// initialRows ≤ 0 starts with one chunk.
func NewArena(initialRows, inDim, outDim int) *Arena {
	a := &Arena{inDim: inDim, outDim: outDim, chunkRows: arenaChunkRows}
	if initialRows < 1 {
		initialRows = 1
	}
	for a.rows < initialRows {
		a.grow()
	}
	return a
}

// Rows returns the total allocated row count.
func (a *Arena) Rows() int { return a.rows }

// FreeRows returns the number of currently unleased rows.
func (a *Arena) FreeRows() int { return len(a.free) }

// grow appends one chunk and pushes its slots onto the free list.
func (a *Arena) grow() {
	a.chunks = append(a.chunks, arenaChunk{
		in:  make([]float32, a.chunkRows*a.inDim),
		out: make([]float32, a.chunkRows*a.outDim),
	})
	base := int32(a.rows)
	for i := a.chunkRows - 1; i >= 0; i-- {
		a.free = append(a.free, base+int32(i))
	}
	a.rows += a.chunkRows
}

// alloc leases one row slot, growing the arena when the free list is
// empty. Not safe for concurrent use; the Blocking wrapper calls it under
// its mutex.
func (a *Arena) alloc() int32 {
	if len(a.free) == 0 {
		a.grow()
	}
	slot := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return slot
}

// copyIn leases a row and copies a payload into it, returning the sample
// that owns the row. It reports false, leasing nothing, when the payload is
// not exactly one row.
func (a *Arena) copyIn(simID, step int, input, output []float32) (Sample, bool) {
	if len(input) != a.inDim || len(output) != a.outDim {
		return Sample{}, false
	}
	slot := a.alloc()
	s := Sample{SimID: simID, Step: step, Input: a.inRow(slot), Output: a.outRow(slot), slot: slot}
	copy(s.Input, input)
	copy(s.Output, output)
	return s, true
}

// reset returns every row to the free list without releasing the chunks.
// Only valid while no resident sample aliases a row: ReplaceContents calls
// it between taking the old contents and copying the new ones in.
func (a *Arena) reset() {
	a.free = a.free[:0]
	for i := a.rows - 1; i >= 0; i-- {
		a.free = append(a.free, int32(i))
	}
}

// freeSlot returns a leased row to the free list.
func (a *Arena) freeSlot(slot int32) {
	a.free = append(a.free, slot)
}

// inRow returns the input row backing a slot.
func (a *Arena) inRow(slot int32) []float32 {
	c, r := int(slot)/a.chunkRows, int(slot)%a.chunkRows
	return a.chunks[c].in[r*a.inDim : (r+1)*a.inDim : (r+1)*a.inDim]
}

// outRow returns the output row backing a slot.
func (a *Arena) outRow(slot int32) []float32 {
	c, r := int(slot)/a.chunkRows, int(slot)%a.chunkRows
	return a.chunks[c].out[r*a.outDim : (r+1)*a.outDim : (r+1)*a.outDim]
}
