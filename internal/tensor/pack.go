package tensor

// Operand packing for the blocked GEMM. Each macro-tile pass copies the
// A-block and B-panel it needs into contiguous, micro-kernel-ordered scratch
// ("packed panels"):
//
//   - the A block (mblk×kc) becomes ⌈mblk/4⌉ micro-panels of 4 rows, each
//     laid out k-major: 4 consecutive values per k-step, zero-padded when
//     the block has a row tail;
//   - the B panel (kc×nblk) becomes ⌈nblk/16⌉ micro-panels of 16 columns,
//     each laid out k-major: 16 consecutive values per k-step, zero-padded
//     on a column tail.
//
// Packing makes the micro-kernel's two input streams perfectly sequential
// (no strides, no tail branches) and is what lets the transposed operand
// forms (A·Bᵀ, Aᵀ·B) share the one micro-kernel: the transpose happens
// during the copy. The scratch buffers are recycled through a freelist so
// steady-state GEMM stays allocation-free.

// packANN packs rows [i0, i0+mblk) × cols [k0, k0+kc) of a into 4-row
// micro-panels.
func packANN(pa []float32, a *Matrix, i0, k0, mblk, kc int) {
	for ir := 0; ir < mblk; ir += microM {
		rows := min(microM, mblk-ir)
		panel := pa[ir*kc : ir*kc+microM*kc]
		if rows < microM {
			Zero(panel)
		}
		for r := 0; r < rows; r++ {
			base := (i0+ir+r)*a.Cols + k0
			src := a.Data[base : base+kc]
			for p, v := range src {
				panel[p*microM+r] = v
			}
		}
	}
}

// packAT packs the aᵀ block with op-rows [i0, i0+mblk) (columns of a) and
// op-cols [k0, k0+kc) (rows of a) into 4-row micro-panels. Reads sweep rows
// of a sequentially; the transpose happens in the scatter.
func packAT(pa []float32, a *Matrix, i0, k0, mblk, kc int) {
	if mblk%microM != 0 {
		tail := (mblk / microM) * microM
		Zero(pa[tail*kc : tail*kc+microM*kc])
	}
	for p := 0; p < kc; p++ {
		base := (k0+p)*a.Cols + i0
		row := a.Data[base : base+mblk]
		for ir := 0; ir < mblk; ir += microM {
			rows := min(microM, mblk-ir)
			copy(pa[ir*kc+p*microM:ir*kc+p*microM+rows], row[ir:ir+rows])
		}
	}
}

// packBNN packs rows [k0, k0+kc) × cols [j0, j0+nblk) of b into 16-column
// micro-panels.
func packBNN(pb []float32, b *Matrix, k0, j0, kc, nblk int) {
	for p := 0; p < kc; p++ {
		base := (k0+p)*b.Cols + j0
		row := b.Data[base : base+nblk]
		for jr := 0; jr < nblk; jr += microN {
			cols := min(microN, nblk-jr)
			d := pb[jr*kc+p*microN : jr*kc+p*microN+microN]
			copy(d, row[jr:jr+cols])
			for j := cols; j < microN; j++ {
				d[j] = 0
			}
		}
	}
}

// packBT packs the bᵀ panel with op-rows [k0, k0+kc) (columns of b) and
// op-cols [j0, j0+nblk) (rows of b) into 16-column micro-panels.
func packBT(pb []float32, b *Matrix, k0, j0, kc, nblk int) {
	for jr := 0; jr < nblk; jr += microN {
		cols := min(microN, nblk-jr)
		panel := pb[jr*kc : jr*kc+microN*kc]
		if cols < microN {
			Zero(panel)
		}
		for j := 0; j < cols; j++ {
			base := (j0+jr+j)*b.Cols + k0
			src := b.Data[base : base+kc]
			for p, v := range src {
				panel[p*microN+j] = v
			}
		}
	}
}

// gemmScratch is one executor's packing workspace: the packed A block, the
// packed B panel, and the edge tile the micro-kernel accumulates into when
// the output tile is clipped on a column tail (and the a·bᵀ kernels' sixteen
// outputs). Buffers are sized for the largest macro-tile, so every block
// shape fits.
type gemmScratch struct {
	pa   []float32
	pb   []float32
	edge [maxKernRows * microN]float32
}

// scratchFree recycles packing workspaces across GEMM calls and pool
// workers. A buffered channel (not a sync.Pool) guarantees steady-state
// reuse even across GC cycles, keeping the training hot path at zero
// allocations; the capacity bounds how many workspaces are retained, and a
// put into a full freelist simply drops the workspace.
var scratchFree = make(chan *gemmScratch, 64)

func getGemmScratch() *gemmScratch {
	select {
	case s := <-scratchFree:
		return s
	default:
		return &gemmScratch{
			pa: make([]float32, blockM*blockK),
			pb: make([]float32, blockK*blockN),
		}
	}
}

func putGemmScratch(s *gemmScratch) {
	select {
	case scratchFree <- s:
	default:
	}
}

// sharedBFree recycles the slab-wide packed B buffers of the shared-B
// driver. Retained buffers only ever grow (an undersized pop is dropped
// and replaced by a power-of-two-rounded allocation), so after warmup a
// training loop's mixed layer shapes all hit the freelist and steady state
// stays allocation-free.
var sharedBFree = make(chan []float32, 8)

func getSharedB(n int) []float32 {
	select {
	case s := <-sharedBFree:
		if cap(s) >= n {
			return s[:n]
		}
	default:
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return make([]float32, n, c)
}

func putSharedB(s []float32) {
	select {
	case sharedBFree <- s:
	default:
	}
}
