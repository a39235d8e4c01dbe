// Package tensor provides dense float32 matrices and the linear-algebra
// kernels used by the neural-network training stack. It is deliberately
// small: row-major matrices, a cache-blocked register-tiled GEMM with fused
// epilogues, the Adam update over flat parameter slabs, and one family of
// elementwise kernels for everything between the GEMMs — epilogues, loss,
// normalization, gradient accumulate, the wire's float copies.
// Everything is allocation-explicit so training loops can reuse buffers
// across batches. A kernel runs inline unless its caller owns a Team — the
// cores of a trainer rank — on which it fans out op-coded chunks to helper
// goroutines that outlive the call (see pool.go), so the training hot path
// stays allocation-free.
//
// # GEMM blocking scheme
//
// The three GEMM forms (A·B, A·Bᵀ, and the accumulating Aᵀ·B) share one
// blocked driver (gemm.go). The output is tiled into blockM×blockN
// macro-tiles and the shared dimension is walked in blockK slabs; for each
// slab the operands are copied into packed panels (pack.go) — contiguous,
// zero-padded, micro-kernel-ordered scratch recycled through a freelist —
// and a register-tiled micro-kernel, sixteen columns wide (microkernel.go;
// see Kernel levels below), accumulates each output tile without touching
// memory for C inside the k-loop. Fused epilogues apply bias-add and the
// layer activation right after accumulation (EpBias, EpBiasReLU). On a team the driver fans out over macro-tiles; tiles
// own disjoint output regions and their decomposition depends only on the
// matrix shapes.
//
// With at most skinnyM = 32 rows of A — the training batch, every serve
// batch — packing B costs more than the product, so A·B and A·Bᵀ take the
// skinny driver: A·B packs A's few rows and hands the same micro-kernel B's
// row stride, so it walks 16 columns of B where they lie, split by 16-column
// panels on a team; A·Bᵀ reads each group of B's rows once as contiguous
// dots against A (dot4x2, dot4x4), split by those groups. Aᵀ·B, a weight
// gradient written into a slab, stays blocked: it serves every reader of
// the slab, the socket ring's all-reduce among them, while an in-process
// trainer forms its weight gradients inside the update instead
// (AdamFactorStep, below). The naive kernels remain as the reference and as
// the fast path for operands too small to tile.
// Tests can force them, or the packed driver, in place of the choice by
// shape (forceGemmMode).
//
// # Kernel levels
//
// The two GEMM kernels exist at three levels, the highest the machine
// supports chosen once at start-up (microkernel_amd64.go; nothing selects
// one but that check, and tests through pinKernelLevel):
//
//   - portable: kern4x16Go and dot4x2Go, plain loops over a software
//     fused multiply-add — the statement of the arithmetic, and all there
//     is off amd64;
//   - AVX2+FMA: a tile call covers 4 rows × 16 columns (eight YMM
//     accumulators), a dot call 4 rows of A × 2 of B;
//   - AVX-512F: a tile call covers up to 12 rows × 16 columns — three
//     packed A panels against one 64-byte load of B per step, twelve ZMM
//     accumulators — so a ten-row batch crosses each 16-column strip of the
//     weights once, not three times; a dot call covers 4 × 4.
//
// The drivers are the same at every level: one loop per product that
// advances by as many rows (or B rows) as the active kernel takes. And the
// levels are bit-equal by construction, not by tolerance: an element of A·B
// is one fused chain from zero over ascending p, then one add into C, in
// whichever accumulator register it happens to sit; a ZMM dot accumulator is
// two of the YMM kernel's eight-lane accumulators side by side, each half
// reduced by the same tree and finished by the same fused tail. So a
// trajectory, a checkpoint and a served answer do not depend on the machine
// (TestKernelLevelsBitEqual; core's TestFixedSeedRunSameAtEveryKernelLevel;
// serve's TestServeSameBytesAtEveryKernelLevel). The one freedom is IEEE's:
// which of two NaN operands an addition hands on — the assembly levels agree
// even there, the portable loops may differ in a NaN's sign. Adam and the
// elementwise family stop at AVX2: the update is bound by the divider
// (VSQRTPS and VDIVPS cost the same per element at either width; a ZMM
// kernel measured 213 µs against 230 on the paper's 330k parameters), the
// elementwise kernels by memory.
//
// # Accumulation order, row invariance and tolerance
//
// Every driver's per-element order is a function of the operand shapes
// alone, never of worker count or scheduling: for a fixed shape, mode and
// machine a GEMM is bit-exactly reproducible across calls, runs and ranks.
//
//   - A·B, blocked and skinny alike: per blockK slab one fused multiply-add
//     chain from zero over ascending p; the slab sums are added to the
//     output in ascending order; then the epilogue. Rows of a micro-tile
//     never mix, and whether the naive kernel runs instead is decided by
//     B's shape, not A's rows. So an output row of A·B, epilogue included,
//     is a pure function of (its input row, B, bias, epilogue): the same
//     bits at every row count, position and set of neighbours, and under
//     the forced packed driver (TestRowInvariance). Serving rests on this.
//   - A·Bᵀ, skinny: eight partial sums over p mod 8, added in a fixed tree,
//     then the k mod 8 tail (dot4x2Go) — a function of k. Above skinnyM
//     rows the blocked order takes over, so a row of A·Bᵀ is not invariant
//     across that bound (which moved from 16 to 32 rows: operands of 17–32
//     rows round differently than they did, within the bound below; forward
//     rows are invariant at every bound).
//   - Non-finite operands propagate on every driver: 0·NaN and 0·∞ are
//     NaN, and no kernel skips a zero operand (TestNonFinitePropagates).
//
// Across drivers (blocked or skinny vs naive; skinny vs blocked A·Bᵀ)
// results differ only in rounding; each stays within
//
//	|err| ≤ (k+4)·ε₃₂·max|A|·max|B|
//
// of the float64-accumulated reference, the bound the property suites in
// gemm_test.go and skinny_test.go enforce; a cross-driver comparison must
// budget twice it.
//
// # Adam update
//
// The update (Team.AdamStep) has no tolerance: an AVX2 kernel
// (adam_amd64.s, eight lanes, enabled by the same CPU check as the GEMM
// micro-kernel) and a portable loop (adamRangeGo, also the kernel's tail)
// compute, per element and in this order, each operation rounded to
// float32 on its own,
//
//	m′ = β1·m + (1−β1)·g            two products, then the sum; no FMA
//	v′ = β2·v + ((1−β2)·g)·g
//	m′ = 0 if |m′| < 2⁻¹²⁶,  v′ = 0 if v′ < 2⁻¹²⁶   (a NaN stays)
//	w  = w − (α·m′)/(√v′ + ε)       correctly rounded root and quotient
//
// and agree bit-for-bit, infinities and NaNs included (the property tests
// and FuzzAdamKernel compare them directly; the one freedom left is which
// of two differently encoded NaNs an addition hands on, see checkAdamImpls),
// so a trajectory does not depend on which one a machine runs or on how a
// team chunks a slab. The third line — a moment is never stored subnormal — keeps a
// step's cost constant: a weight whose gradient has become exactly zero (a
// dead ReLU unit) would otherwise see m decay to k·2⁻¹⁴⁹, k ≤ 4, where
// 0.9·m rounds back to m, and every later step would take a microcode
// assist of about 100 ns on that element. On a state with no subnormal
// moment the update equals the scalar loop it replaced bit-for-bit.
//
// AdamSumStep is the same update over part of the slabs for a gradient
// that lives in several slabs: g is their sum, one float32 add at a time
// in the order given, times a scale, and once read every slab it is told
// to clear gets a zero there. One kernel runs both (AdamStep is its
// one-source case; multiplying by 1 is exact), so a data-parallel step's
// reduction, 1/n, update and gradient clearing are one sweep
// (FuzzUpdateKernel is its differential).
//
// AdamFactorStep is AdamSumStep for a Dense layer's weight whose gradients
// were never written: each source is one rank's batch factors (Factors: the
// layer input X and the pre-activation gradient DZ), and the sweep forms
// element (i, j) of each rank's Xᵀ·DZ in registers, in exactly the order
// MatMulATBAdd forms it into a zero slab — per blockK slab of the batch one
// fused chain from +0, the chains added in turn; below naiveMaxWork the
// naive kernel's product-then-add per row — before the sum, the scale and
// the update. A ten-row batch holds a 256×1024 weight's gradient in 50 KB of
// factors instead of a megabyte of slab, and the slab's write and re-read
// leave the step. Its kernel belongs to the GEMM's kernel level (the
// portable loop, or AVX2 at the avx2 and avx512 levels);
// TestAdamFactorStepIsGemmThenSumStep and FuzzFactorKernel hold it to
// MatMulATBAdd followed by AdamSumStep, bit for bit.
//
// # Elementwise kernels
//
// vec.go's family — Add, AddReLU, ReLUGradBias, SubScale, AffineNorm,
// F64ToF32, PutF32LE / GetF32LE and SqDiffSum — is what the training step
// and the ingest path run per field between the GEMMs. Each has an AVX2
// kernel (vec_amd64.s, eight lanes, enabled by the same CPU check) over the
// whole blocks of eight and a portable loop that is the kernel's tail and
// the only implementation elsewhere; there is nothing to select.
//
//   - All but SqDiffSum are lane-independent: output element i is one or two
//     IEEE float32 operations on input elements i, each rounded on its own
//     (no FMA; AffineNorm divides, it does not multiply by a reciprocal), so
//     assembly, portable loop and the scalar loops they replaced agree
//     bit-for-bit (FuzzVecKernels) and no trajectory depends on which runs
//     or on where a block boundary falls.
//   - Two NaN rules, both the scalar comparisons' own. AddReLU keeps a sum
//     only if it is greater than zero, so NaN (and −0, −∞) become +0.
//     ReLUGradBias zeroes the gradient only where the activation is ≤ 0, so
//     a NaN activation passes it. Everything else propagates non-finite
//     operands as IEEE arithmetic does (TestNonFinitePropagates).
//   - SqDiffSum is the one reduction: Σ(a−b)² in float64 over eight partial
//     sums, element i of the whole blocks going to lane i mod 8 with
//     difference, square and sum each rounded on their own; then
//     ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)), then the n mod 8 tail in order.
//     The order is a function of n alone, the same on every platform
//     (TestSqDiffSumOrder executes it in math/big). It feeds the reported
//     train loss and validation MSE only; no gradient reads it.
package tensor

import "fmt"

// Matrix is a dense, row-major float32 matrix. Data has length Rows*Cols;
// element (r, c) lives at Data[r*Cols+c].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ViewRows points dst at rows [r0, r1) of m, sharing storage. Writing
// through dst writes m. The dst header is caller-owned so hot loops can
// reuse one header for varying batch prefixes without allocating.
func (m *Matrix) ViewRows(dst *Matrix, r0, r1 int) {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("tensor: ViewRows [%d,%d) of %d rows", r0, r1, m.Rows))
	}
	dst.Rows, dst.Cols = r1-r0, m.Cols
	dst.Data = m.Data[r0*m.Cols : r1*m.Cols]
}

// Row returns the r-th row as a slice sharing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// SumRowsInto accumulates the column sums of m into dst (length Cols).
// Used for bias gradients.
func (m *Matrix) SumRowsInto(dst []float32) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRowsInto length %d != cols %d", len(dst), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		Add(dst, m.Row(r))
	}
}
