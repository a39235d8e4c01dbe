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
// An arena starts empty and adds a chunk only when a row is asked for and
// none is free, so its rows track the peak population plus at most one
// chunk. Chunked growth matters for correctness: rows are referenced by
// slices held inside policy containers, so existing chunks must never
// move. Growing appends a new chunk and leaves every issued row valid.
type Arena struct {
	inDim, outDim int
	chunks        []arenaChunk
	free          []int32
	rows          int
}

type arenaChunk struct {
	in, out []float32
}

// arenaChunkRows is the allocation granularity; ~512 heat-equation rows ≈
// 2 MB of field data per chunk.
const arenaChunkRows = 512

// NewArena builds an empty arena for rows of the given widths.
func NewArena(inDim, outDim int) *Arena {
	return &Arena{inDim: inDim, outDim: outDim}
}

// grow appends one chunk and pushes its slots onto the free list.
func (a *Arena) grow() {
	a.chunks = append(a.chunks, arenaChunk{
		in:  make([]float32, arenaChunkRows*a.inDim),
		out: make([]float32, arenaChunkRows*a.outDim),
	})
	base := int32(a.rows)
	for i := arenaChunkRows - 1; i >= 0; i-- {
		a.free = append(a.free, base+int32(i))
	}
	a.rows += arenaChunkRows
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

// fits reports whether a payload is exactly one row.
func (a *Arena) fits(input, output []float32) bool {
	return len(input) == a.inDim && len(output) == a.outDim
}

// copyIn leases a row and copies a payload that fits into it, returning
// the sample that owns the row.
func (a *Arena) copyIn(simID, step int, input, output []float32) Sample {
	slot := a.alloc()
	s := Sample{SimID: simID, Step: step, Input: a.inRow(slot), Output: a.outRow(slot), slot: slot}
	copy(s.Input, input)
	copy(s.Output, output)
	return s
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
	c, r := int(slot)/arenaChunkRows, int(slot)%arenaChunkRows
	return a.chunks[c].in[r*a.inDim : (r+1)*a.inDim : (r+1)*a.inDim]
}

// outRow returns the output row backing a slot.
func (a *Arena) outRow(slot int32) []float32 {
	c, r := int(slot)/arenaChunkRows, int(slot)%arenaChunkRows
	return a.chunks[c].out[r*a.outDim : (r+1)*a.outDim : (r+1)*a.outDim]
}
