package tensor

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// The GEMM benchmark grid covers the training-shaped sizes of the paper's
// surrogate (batch×hidden×field): the forward input layer, the wide output
// layer at several batch sizes, and the backward operand forms. Every entry
// reports GFLOP/s via b.ReportMetric so CI bench smoke runs leave a
// throughput trajectory (see History in bench/README.md for PR 4's), and
// -benchmem pins the 0 allocs/op steady state.

// gemmGrid is the training-shaped size grid: m = batch (paper: 10, plus
// larger offline/validation batches and the serve batch from a lone row to
// MaxBatch), k/n = hidden widths and the flattened field. 12 and 24 rows
// are one and two full calls of the 12-row kernel; 32 and 33 rows are the
// two sides of skinnyM.
var gemmGrid = [][3]int{
	{10, 256, 256},
	{1, 256, 1024},
	{10, 256, 1024},
	{12, 256, 1024},
	{24, 256, 1024},
	{32, 256, 1024},
	{33, 256, 1024},
	{64, 256, 1024},
	{256, 256, 1024},
}

func benchGemmShape(b *testing.B, m, k, n int, mode gemmModeT, run func(dst, a, bb *Matrix, bias []float32)) {
	old := gemmMode
	gemmMode = mode
	defer func() { gemmMode = old }()
	rng := rand.New(rand.NewPCG(1, 2))
	a := randMatrix(rng, m, k)
	bb := randMatrix(rng, k, n)
	bias := make([]float32, n)
	dst := New(m, n)
	run(dst, a, bb, bias) // warm the scratch freelist outside the timer
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dst, a, bb, bias)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatMul is the headline grid on the blocked kernel.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range gemmGrid {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			benchGemmShape(b, s[0], s[1], s[2], gemmAuto, func(dst, a, bb *Matrix, _ []float32) {
				MatMul(dst, a, bb)
			})
		})
	}
}

// BenchmarkMatMulNaive is the same grid on the reference kernels — the
// PR 3 baseline the ≥1.5× acceptance gate compares against.
func BenchmarkMatMulNaive(b *testing.B) {
	for _, s := range gemmGrid {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			benchGemmShape(b, s[0], s[1], s[2], gemmNaive, func(dst, a, bb *Matrix, _ []float32) {
				MatMul(dst, a, bb)
			})
		})
	}
}

// BenchmarkMatMulBiasReLU measures the fused forward epilogue at the
// paper's hidden-layer shape.
func BenchmarkMatMulBiasReLU(b *testing.B) {
	for _, s := range [][3]int{{10, 256, 256}, {64, 256, 1024}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			benchGemmShape(b, s[0], s[1], s[2], gemmAuto, func(dst, a, bb *Matrix, bias []float32) {
				MatMulBiasReLU(dst, a, bb, bias)
			})
		})
	}
}

// BenchmarkMatMulABT measures the dX = dY·Wᵀ backward form (m×k×n is
// batch × layer out × layer in) at the paper's output and hidden layers,
// and at the output layer on both sides of skinnyM.
func BenchmarkMatMulABT(b *testing.B) {
	for _, s := range [][3]int{{10, 1024, 256}, {10, 256, 256}, {1, 1024, 256}, {12, 1024, 256}, {24, 1024, 256}, {32, 1024, 256}, {33, 1024, 256}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 4))
			dy := randMatrix(rng, s[0], s[1])
			w := randMatrix(rng, s[2], s[1])
			dst := New(s[0], s[2])
			MatMulABT(dst, dy, w)
			flops := 2 * float64(s[0]) * float64(s[1]) * float64(s[2])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulABT(dst, dy, w)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkMatMulATBAdd measures the dW += Xᵀ·dY backward form at the
// output layer (k = batch = 10, the short-reduction case).
func BenchmarkMatMulATBAdd(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := randMatrix(rng, 10, 256)
	dy := randMatrix(rng, 10, 1024)
	dst := New(256, 1024)
	MatMulATBAdd(dst, x, dy)
	flops := 2.0 * 10 * 256 * 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATBAdd(dst, x, dy)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkAdamStepSizes measures the Adam update per element across slab
// sizes on either side of elemwiseParallelThreshold — the measurement the
// constant's comment quotes. "live" is a constant non-zero gradient;
// "dead-units" zeroes a third of the gradients and starts their moments at
// 2⁻¹²⁰, the state a layer with dead ReLU units is in. Under the flush those
// moments reach 0 within 40 steps for m, 4200 for v, and the two cases cost
// the same; if stored subnormals ever came back this case would show the
// ≈ 100 ns/element assist cliff that "live" cannot reach.
func BenchmarkAdamStepSizes(b *testing.B) {
	for _, n := range []int{4096, 32768, 131072, 330752, 1048576} {
		for _, state := range []string{"live", "dead-units"} {
			deadUnits := state == "dead-units"
			b.Run(fmt.Sprintf("n=%d/%s", n, state), func(b *testing.B) {
				vals := make([]float32, n)
				grads := make([]float32, n)
				m := make([]float32, n)
				v := make([]float32, n)
				for i := range grads {
					grads[i] = 0.01
					if deadUnits && i%3 == 0 {
						grads[i], m[i], v[i] = 0, 0x1p-120, 0x1p-120
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AdamStep(vals, grads, m, v, 1e-3, 0.9, 0.999, 1e-8)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
