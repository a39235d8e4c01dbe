// Package tensor provides dense float32 matrices and the linear-algebra
// kernels used by the neural-network training stack. It is deliberately
// small: row-major matrices, a cache-blocked register-tiled GEMM with fused
// epilogues, the Adam update over flat parameter slabs, and one family of
// elementwise kernels for everything between the GEMMs — epilogues, loss,
// normalization, gradient accumulate and scale, the wire's float copies.
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
// layer activation right after accumulation (MatMulBias, MatMulBiasReLU,
// MatMulBiasTanh). On a team the driver fans out over macro-tiles; tiles
// own disjoint output regions and their decomposition depends only on the
// matrix shapes.
//
// With at most skinnyM = 32 rows of A — the training batch, every serve
// batch — packing B costs more than the product, so A·B and A·Bᵀ take the
// skinny driver: A·B packs A's few rows and hands the same micro-kernel B's
// row stride, so it walks 16 columns of B where they lie, split by 16-column
// panels on a team; A·Bᵀ reads each group of B's rows once as contiguous
// dots against A (dot4x2, dot4x4), split by those groups. Aᵀ·B, bound by
// the gradient's memory, stays blocked. The naive kernels remain as the
// reference and as the fast path for operands too small to tile.
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
//     B's shape, not A's rows. So an output row of MatMul / MatMulBias* is
//     a pure function of (its input row, B, bias, epilogue): the same bits
//     at every row count, position and set of neighbours, and under
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
// AdamStep has no tolerance: an AVX2 kernel (adam_amd64.s, eight lanes,
// enabled by the same CPU check as the GEMM micro-kernel) and a portable
// loop (adamRangeGo, also the kernel's tail) compute, per element and in
// this order, each operation rounded to float32 on its own,
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
// # Elementwise kernels
//
// vec.go's family — Scal, Add, AddReLU, ReLUGradBias, SubScale, AffineNorm,
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

import (
	"fmt"
	"math"
)

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

// FromSlice wraps data as a rows×cols matrix without copying. The slice
// length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
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

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice sharing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { clear(m.Data) }

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Add accumulates src into m element-wise.
func (m *Matrix) Add(src *Matrix) {
	m.mustSameShape(src)
	Axpy(1, src.Data, m.Data)
}

// Sub subtracts src from m element-wise.
func (m *Matrix) Sub(src *Matrix) {
	m.mustSameShape(src)
	Axpy(-1, src.Data, m.Data)
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float32) { Scal(a, m.Data) }

// AddRowVector adds the vector v (length Cols) to every row of m. Used for
// bias broadcast in dense layers.
func (m *Matrix) AddRowVector(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		Add(m.Row(r), v)
	}
}

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

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and other. Useful in tests.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.mustSameShape(other)
	var max float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(other.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// Norm2 returns the Frobenius norm of m, accumulated in float64.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
