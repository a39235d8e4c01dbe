package tensor

import (
	"fmt"
	"math"
)

// GEMM has three drivers, selected by shape (gemm): blocked — macro-tiles
// over packed panels; skinny — a·b and a·bᵀ of at most skinnyM rows, b read
// where it lies, split by 16-column panels of b (a·b) or row groups of b
// (a·bᵀ); naive — the reference loops, and the fast path for operands too
// small to tile. Each fans its units out on the caller's Team (pool.go) when
// the product is large enough, and runs them inline otherwise. The package
// comment states each one's accumulation order and what follows from them
// (row invariance, the tolerance between drivers, non-finite operands).

// Blocking parameters: macro-tiles are blockM×blockN, the shared dimension
// is walked in blockK slabs. Sized so one packed A block (blockM·blockK
// floats = 64 KiB), one packed B panel (blockK·blockN floats = 256 KiB) and
// the output tile stay L2-resident while each 16-column B micro-panel
// (blockK·16 floats = 16 KiB) stays L1-resident across the row sweep.
// blockM must be a multiple of microM and blockN of microN.
const (
	blockM = 64
	blockK = 256
	blockN = 256
)

// skinnyM is the most rows the skinny driver takes: the training batch and
// every serve batch (MaxBatch 32) are under it, and packing a megabyte of
// weights for a few rows to use once costs more than the product — at 17
// rows a·bᵀ took 405 µs packed against 195 in place. BenchmarkMatMul's 32-
// and 33-row entries sit on either side.
const skinnyM = 32

// naiveMaxWork is the multiply-add count below which the naive kernels beat
// the blocked path (packing + tile setup amortize poorly). Measured on the
// CI-class Xeon the crossover sits near 8×8×8 = 512 madds: 4×4×4 runs 105 ns
// naive vs 171 ns blocked while 8×8×8 runs 520 ns vs 345 ns. a·b counts
// eight rows whatever it has (useBlocked).
const naiveMaxWork = 1 << 9

// Epilogue selects the fused transformation applied to each output tile
// after accumulation, while it is still cache-hot: nothing, a bias-row add,
// or bias plus the layer activation.
type Epilogue uint8

const (
	EpNone Epilogue = iota
	EpBias
	EpBiasReLU
	EpBiasTanh
)

// gemmKind selects the operand form shared by the blocked driver.
type gemmKind uint8

const (
	gemmNN    gemmKind = iota // dst = a·b
	gemmNT                    // dst = a·bᵀ
	gemmTNAdd                 // dst += aᵀ·b
)

type gemmModeT uint8

const (
	gemmAuto gemmModeT = iota
	gemmNaive
	gemmBlocked
)

// gemmMode picks the driver by problem size (gemmAuto). Tests force the
// reference kernels (gemmNaive) or the blocked path even for tiny shapes
// (gemmBlocked) through forceGemmMode.
var gemmMode = gemmAuto

func useBlocked(kind gemmKind, m, n, k int) bool {
	switch gemmMode {
	case gemmNaive:
		return false
	case gemmBlocked:
		return true
	}
	if kind == gemmNN {
		m = 8 // a row's kernel must not depend on how many rows came with it
	}
	return m*n*k >= naiveMaxWork
}

// MatMul computes dst = a·b. dst must be preallocated with shape
// a.Rows×b.Cols and must not alias a or b.
func MatMul(dst, a, b *Matrix) { (*Team)(nil).MatMulEpilogue(dst, a, b, nil, EpNone) }

// MatMulBias computes dst = a·b + bias with the bias row (length b.Cols)
// broadcast over the batch, fused into the GEMM epilogue — the dense-layer
// forward without the extra full pass of AddRowVector.
func MatMulBias(dst, a, b *Matrix, bias []float32) {
	(*Team)(nil).MatMulEpilogue(dst, a, b, bias, EpBias)
}

// MatMulBiasReLU computes dst = relu(a·b + bias) in one fused pass.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float32) {
	(*Team)(nil).MatMulEpilogue(dst, a, b, bias, EpBiasReLU)
}

// MatMulBiasTanh computes dst = tanh(a·b + bias) in one fused pass.
func MatMulBiasTanh(dst, a, b *Matrix, bias []float32) {
	(*Team)(nil).MatMulEpilogue(dst, a, b, bias, EpBiasTanh)
}

// MatMulABT computes dst = a·bᵀ. dst must have shape a.Rows×b.Rows. Used in
// backprop for dX = dY·Wᵀ without materializing the transpose.
func MatMulABT(dst, a, b *Matrix) { (*Team)(nil).MatMulABT(dst, a, b) }

// MatMulATBAdd computes dst += aᵀ·b. dst must have shape a.Cols×b.Cols. The
// accumulate form matches gradient accumulation for dW += Xᵀ·dY.
func MatMulATBAdd(dst, a, b *Matrix) { (*Team)(nil).MatMulATBAdd(dst, a, b) }

// MatMulEpilogue is MatMul (EpNone) or MatMulBias* (the other epilogues,
// with a bias row of length b.Cols) on the team.
func (tm *Team) MatMulEpilogue(dst, a, b *Matrix, bias []float32, ep Epilogue) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	checkDst(dst, a.Rows, b.Cols, "MatMul")
	if ep != EpNone && len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), b.Cols))
	}
	tm.gemm(gemmNN, dst, a, b, bias, ep)
}

// MatMulABT is the package's MatMulABT on the team.
func (tm *Team) MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", a.Cols, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows, "MatMulABT")
	tm.gemm(gemmNT, dst, a, b, nil, EpNone)
}

// MatMulATBAdd is the package's MatMulATBAdd on the team.
func (tm *Team) MatMulATBAdd(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATBAdd inner dims %d vs %d", a.Rows, b.Rows))
	}
	checkDst(dst, a.Cols, b.Cols, "MatMulATBAdd")
	tm.gemm(gemmTNAdd, dst, a, b, nil, EpNone)
}

func checkDst(dst *Matrix, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// gemmDims returns the op-space dimensions (m×k)·(k×n) for a kind.
func gemmDims(kind gemmKind, a, b *Matrix) (m, n, k int) {
	switch kind {
	case gemmNT:
		return a.Rows, b.Rows, a.Cols
	case gemmTNAdd:
		return a.Cols, b.Cols, a.Rows
	}
	return a.Rows, b.Cols, a.Cols
}

// gemm routes one validated GEMM to the skinny, blocked or naive driver.
func (tm *Team) gemm(kind gemmKind, dst, a, b *Matrix, bias []float32, ep Epilogue) {
	m, n, k := gemmDims(kind, a, b)
	if m == 0 || n == 0 {
		return
	}
	if useBlocked(kind, m, n, k) {
		if m <= skinnyM && kind != gemmTNAdd && gemmMode == gemmAuto {
			if kind == gemmNN {
				tm.gemmSkinnyNN(dst, a, b, bias, ep)
			} else {
				_, _, stepN := skinnyNTKernel(m, n)
				tm.parallel(n/stepN, m*n*k, task{op: opSkinnyNT, dst: dst, a: a, b: b})
			}
			return
		}
		rowTiles := (m + blockM - 1) / blockM
		colTiles := (n + blockN - 1) / blockN
		if rowTiles > 1 {
			// Several macro-tiles stack on each B panel: pack the whole
			// panel row once per k-slab (cooperatively, across the team)
			// and let every row tile consume the shared packing, instead
			// of re-packing the panel per tile.
			tm.gemmSharedB(kind, dst, a, b, bias, ep, k, rowTiles, colTiles)
			return
		}
		tm.parallel(rowTiles*colTiles, m*n*k, task{op: opGemmTile, dst: dst, a: a, b: b, bias: bias, gk: kind, ep: ep})
		return
	}
	switch kind {
	case gemmNN:
		tm.parallel(m, m*n*k, task{op: opMatMul, dst: dst, a: a, b: b})
	case gemmNT:
		tm.parallel(m, m*n*k, task{op: opMatMulABT, dst: dst, a: a, b: b})
	case gemmTNAdd:
		// Parallelize over rows of dst (columns of a) so writers never
		// overlap.
		tm.parallel(m, m*n*k, task{op: opMatMulATBAdd, dst: dst, a: a, b: b})
	}
	if ep != EpNone {
		applyEpilogue(dst, 0, m, 0, n, bias, ep)
	}
}

// gemmSkinnyNN computes dst = ep(a·b) for a.Rows ≤ skinnyM in the blocked
// order without packing b: all of a is packed once, slab by slab (at most
// eight micro-panels each), and each chunk of 16-column panels of b runs
// the micro-kernel through b by its row stride (skinnyNNRange).
func (tm *Team) gemmSkinnyNN(dst, a, b *Matrix, bias []float32, ep Epilogue) {
	m, n, k := a.Rows, b.Cols, a.Cols
	mp := (m + microM - 1) / microM * microM
	pa := getSharedB(mp * k)
	for k0 := 0; k0 < k; k0 += blockK {
		packANN(pa[mp*k0:], a, 0, k0, m, min(blockK, k-k0))
	}
	tm.parallel((n+microN-1)/microN, m*n*k, task{op: opSkinnyNN, dst: dst, a: a, b: b, bias: bias, ep: ep, shared: pa})
	putSharedB(pa)
}

// skinnyNNRange computes columns [16·p0, 16·p1) of the skinny a·b: zero
// them, add each slab's product, then the epilogue. Only a column tail of b
// is packed, because the kernel reads 16 floats.
func skinnyNNRange(t *task, p0, p1 int) {
	dst, b := t.dst, t.b
	m, n, k := t.a.Rows, b.Cols, t.a.Cols
	mp := (m + microM - 1) / microM * microM
	j0, j1 := p0*microN, min(p1*microN, n)
	for i := 0; i < m; i++ {
		Zero(dst.Data[i*n+j0 : i*n+j1])
	}
	s := getGemmScratch()
	for k0 := 0; k0 < k; k0 += blockK {
		kc := min(blockK, k-k0)
		pa := t.shared[mp*k0:]
		for jr := j0; jr < j1; jr += microN {
			nv := min(microN, n-jr)
			pb, ldb := b.Data[k0*n+jr:], n
			if nv < microN {
				packBNN(s.pb, b, k0, jr, kc, nv)
				pb, ldb = s.pb, microN
			}
			for ir := 0; ir < m; ir += kern.rows {
				mv := min(kern.rows, m-ir)
				if nv == microN {
					kern.tile(kc, pa[ir*kc:], pb, ldb, dst.Data[ir*n+jr:], n, mv)
				} else {
					edgeTile(s, kc, pa[ir*kc:], pb, ldb, dst.Data, ir*n+jr, n, mv, nv)
				}
			}
		}
	}
	putGemmScratch(s)
	if t.ep != EpNone {
		applyEpilogue(dst, 0, m, j0, j1, t.bias, t.ep)
	}
}

// skinnyNTKernel returns the a·bᵀ dot kernel for an m×n output of the
// skinny driver, the columns it writes per row of a (out[cols*r+c]) and the
// group of b's rows one call reads: four where the active level has a 4×4
// dot kernel and both sides have four rows, else two, and one (the kernel
// then does one row several times) when b has fewer rows than that.
func skinnyNTKernel(m, n int) (dot func(int, []float32, int, []float32, int, *[16]float32), cols, stepN int) {
	dot, cols = kern.dot4x2, 2
	if kern.dot4x4 != nil && m >= microM && n >= 4 {
		dot, cols = kern.dot4x4, 4
	}
	if n < cols {
		return dot, cols, 1
	}
	return dot, cols, cols
}

// skinnyNTRange computes row groups [g0, g1) of b of the skinny a·bᵀ, a
// group being the columns of dst one dot call writes: each group of b's
// rows is read once, as contiguous dots against four rows of a at a time (a
// stays cache-resident). With n not a multiple of the group, the last group
// also covers the tail by a call moved back to overlap it — the recomputed
// dots are the same bits, and they are written by the chunk that owns the
// group they overlap. With under four rows of a the stride is zero and the
// kernel does one row several times.
func skinnyNTRange(t *task, g0, g1 int) {
	a, b, dst := t.a, t.b, t.dst
	m, n, k := a.Rows, b.Rows, a.Cols
	dot, cols, stepN := skinnyNTKernel(m, n)
	stepM, lda, ldb := microM, k, k
	if m < stepM {
		stepM, lda = 1, 0
	}
	if stepN < cols {
		ldb = 0
	}
	j1 := g1 * stepN
	if g1 == n/stepN {
		j1 = n
	}
	s := getGemmScratch()
	out := (*[16]float32)(s.edge[:]) // a local would escape through the kernel variable
	for j0 := g0 * stepN; j0 < j1; j0 += stepN {
		j := min(j0, n-stepN)
		for i0 := 0; i0 < m; i0 += stepM {
			i := min(i0, m-stepM)
			dot(k, a.Data[i*k:], lda, b.Data[j*k:], ldb, out)
			for r := 0; r < stepM; r++ {
				copy(dst.Data[(i+r)*n+j:(i+r)*n+j+stepN], out[cols*r:])
			}
		}
	}
	putGemmScratch(s)
}

// gemmSharedB is the blocked driver for outputs taller than one macro-tile
// (backward's dW = Xᵀ·dY is the training-shaped case: 256×1024 over a
// batch-sized k). Per blockK slab it runs two phases on the team:
// packBRange packs every column panel of the slab into one shared buffer
// (parallel over panels), then gemmTileSharedRange sweeps all macro-tiles
// against the shared packing. Each output element still accumulates its
// k-slabs in ascending order and each tile's math is fixed by shape alone,
// so results stay bit-identical to the per-tile-packing driver whoever runs
// which tile.
func (tm *Team) gemmSharedB(kind gemmKind, dst, a, b *Matrix, bias []float32, ep Epilogue, k, rowTiles, colTiles int) {
	m, n, _ := gemmDims(kind, a, b)
	for k0 := 0; k0 < k; k0 += blockK {
		kc := min(blockK, k-k0)
		pb := getSharedB(colTiles * blockN * kc)
		t := task{dst: dst, a: a, b: b, bias: bias, gk: kind, ep: ep, shared: pb, k0: k0, kc: kc}
		t.op = opPackB
		tm.parallel(colTiles, kc*n, t)
		t.op = opGemmTileShared
		tm.parallel(rowTiles*colTiles, m*n*kc, t)
		putSharedB(pb)
	}
}

// packBRange packs column panels [p0, p1) of the current k-slab into the
// shared buffer at stride blockN·kc. Panels are disjoint regions and their
// packed bytes depend only on the operands, so any split across workers
// produces identical contents.
func packBRange(t *task, p0, p1 int) {
	_, n, _ := gemmDims(t.gk, t.a, t.b)
	for p := p0; p < p1; p++ {
		j0 := p * blockN
		nblk := min(blockN, n-j0)
		panel := t.shared[p*blockN*t.kc : (p+1)*blockN*t.kc]
		if t.gk == gemmNT {
			packBT(panel, t.b, t.k0, j0, t.kc, nblk)
		} else {
			packBNN(panel, t.b, t.k0, j0, t.kc, nblk)
		}
	}
}

// gemmTileSharedRange executes macro-tiles [t0, t1) against the shared
// packed B slab: pack the tile's A block privately, zero the output on the
// first slab, accumulate, and apply the epilogue after the last slab.
func gemmTileSharedRange(t *task, t0, t1 int) {
	m, n, k := gemmDims(t.gk, t.a, t.b)
	tilesPerRow := (n + blockN - 1) / blockN
	s := getGemmScratch()
	for ti := t0; ti < t1; ti++ {
		i0 := (ti / tilesPerRow) * blockM
		pcol := ti % tilesPerRow
		j0 := pcol * blockN
		mblk, nblk := min(blockM, m-i0), min(blockN, n-j0)
		dst, ld := t.dst, t.dst.Cols
		if t.k0 == 0 && t.gk != gemmTNAdd {
			for i := i0; i < i0+mblk; i++ {
				Zero(dst.Data[i*ld+j0 : i*ld+j0+nblk])
			}
		}
		switch t.gk {
		case gemmTNAdd:
			packAT(s.pa, t.a, i0, t.k0, mblk, t.kc)
		default:
			packANN(s.pa, t.a, i0, t.k0, mblk, t.kc)
		}
		sweepTile(t, s, s.pa, t.shared[pcol*blockN*t.kc:], i0, j0, mblk, nblk, t.kc)
		if t.k0+t.kc >= k && t.ep != EpNone {
			applyEpilogue(dst, i0, i0+mblk, j0, j0+nblk, t.bias, t.ep)
		}
	}
	putGemmScratch(s)
}

// gemmTileRange executes macro-tiles [t0, t1) of the blocked decomposition;
// it is the opGemmTile kernel a team's chunks run. Tiles are enumerated
// row-major over the ⌈m/blockM⌉×⌈n/blockN⌉ grid, each tile owns a disjoint
// output region, and the per-tile loop nest is fully deterministic —
// results do not depend on which goroutine runs which tile.
func gemmTileRange(t *task, t0, t1 int) {
	m, n, k := gemmDims(t.gk, t.a, t.b)
	tilesPerRow := (n + blockN - 1) / blockN
	s := getGemmScratch()
	for ti := t0; ti < t1; ti++ {
		i0 := (ti / tilesPerRow) * blockM
		j0 := (ti % tilesPerRow) * blockN
		runMacroTile(t, s, i0, j0, min(blockM, m-i0), min(blockN, n-j0), k)
	}
	putGemmScratch(s)
}

// runMacroTile computes one blockM×blockN output tile: zero it (overwrite
// forms only), accumulate packed panel products over every blockK slab of
// the shared dimension, then apply the fused epilogue while the tile is
// still cache-hot.
func runMacroTile(t *task, s *gemmScratch, i0, j0, mblk, nblk, k int) {
	dst := t.dst
	ld := dst.Cols
	if t.gk != gemmTNAdd {
		for i := i0; i < i0+mblk; i++ {
			Zero(dst.Data[i*ld+j0 : i*ld+j0+nblk])
		}
	}
	for k0 := 0; k0 < k; k0 += blockK {
		kc := min(blockK, k-k0)
		switch t.gk {
		case gemmNN:
			packANN(s.pa, t.a, i0, k0, mblk, kc)
			packBNN(s.pb, t.b, k0, j0, kc, nblk)
		case gemmNT:
			packANN(s.pa, t.a, i0, k0, mblk, kc)
			packBT(s.pb, t.b, k0, j0, kc, nblk)
		case gemmTNAdd:
			packAT(s.pa, t.a, i0, k0, mblk, kc)
			packBNN(s.pb, t.b, k0, j0, kc, nblk)
		}
		sweepTile(t, s, s.pa, s.pb, i0, j0, mblk, nblk, kc)
	}
	if t.ep != EpNone {
		applyEpilogue(dst, i0, i0+mblk, j0, j0+nblk, t.bias, t.ep)
	}
}

// sweepTile drives the micro-kernel over one macro-tile's packed panels:
// B micro-panel outer, A micro-panels inner — as many per call as the
// active kernel takes — so the 16-column panel stays L1-resident across the
// row sweep. Shared by the per-tile-packing and shared-B drivers.
func sweepTile(t *task, s *gemmScratch, packedA, packedB []float32, i0, j0, mblk, nblk, kc int) {
	dst := t.dst
	ld := dst.Cols
	for jr := 0; jr < nblk; jr += microN {
		nv := min(microN, nblk-jr)
		pb := packedB[jr*kc:]
		for ir := 0; ir < mblk; ir += kern.rows {
			mv := min(kern.rows, mblk-ir)
			pa := packedA[ir*kc:]
			cbase := (i0+ir)*ld + j0 + jr
			if nv == microN {
				kern.tile(kc, pa, pb, microN, dst.Data[cbase:], ld, mv)
			} else {
				edgeTile(s, kc, pa, pb, microN, dst.Data, cbase, ld, mv, nv)
			}
		}
	}
}

// edgeTile is a tile call on a column tail: the kernel writes its mv rows of
// sixteen columns into the scratch edge buffer and only the valid nv are
// added into dst. Each element is its own chain, so what the zero-padded
// columns compute (zeros, or NaN against a non-finite operand) never
// reaches a valid one.
func edgeTile(s *gemmScratch, kc int, pa, pb []float32, ldb int, dstData []float32, cbase, ld, mv, nv int) {
	Zero(s.edge[:mv*microN])
	kern.tile(kc, pa, pb, ldb, s.edge[:], microN, mv)
	for r := 0; r < mv; r++ {
		cr := dstData[cbase+r*ld : cbase+r*ld+nv]
		er := s.edge[r*microN : r*microN+nv]
		for j := range cr {
			cr[j] += er[j]
		}
	}
}

// applyEpilogue applies the fused bias/activation to the dst region
// [i0,i1)×[j0,j1). Bias is indexed by absolute column, matching a
// length-n bias row.
func applyEpilogue(dst *Matrix, i0, i1, j0, j1 int, bias []float32, ep Epilogue) {
	bv := bias[j0:j1]
	for i := i0; i < i1; i++ {
		row := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j1]
		switch ep {
		case EpBias:
			Add(row, bv)
		case EpBiasReLU:
			AddReLU(row, bv)
		case EpBiasTanh:
			for j, v := range bv {
				row[j] = float32(math.Tanh(float64(row[j] + v)))
			}
		}
	}
}

// The naive kernels below are the reference implementation: plain loop
// nests whose accumulation order (ascending k per output element) the
// equivalence suite checks the blocked path against, and the fast path for
// problems too small to amortize packing.

func matMulRange(dst, a, b *Matrix, r0, r1 int) {
	n := b.Cols
	for i := r0; i < r1; i++ {
		ci := dst.Data[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, aik := range ai {
			Axpy(aik, b.Data[k*n:(k+1)*n], ci)
		}
	}
}

func matMulABTRange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			bj := b.Data[j*b.Cols : (j+1)*b.Cols]
			di[j] = Dot(ai, bj)
		}
	}
}

func matMulATBAddRange(dst, a, b *Matrix, c0, c1 int) {
	for k := 0; k < a.Rows; k++ {
		ak := a.Data[k*a.Cols : (k+1)*a.Cols]
		bk := b.Data[k*b.Cols : (k+1)*b.Cols]
		for c := c0; c < c1; c++ {
			Axpy(ak[c], bk, dst.Data[c*dst.Cols:(c+1)*dst.Cols])
		}
	}
}
