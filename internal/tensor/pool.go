package tensor

import (
	"runtime"
	"sync"
)

// The kernels in this package parallelize across independent work ranges: a
// blocked GEMM fans out macro-tiles, the naive kernels fan out row (or
// column) ranges, and the fused optimizer fans out slab chunks. A naive
// `go func` per range allocates a closure and a goroutine per call, which
// puts garbage on the training hot path. Instead a fixed pool of worker
// goroutines consumes op-coded task descriptors from a channel: descriptors
// are plain structs sent by value, so steady-state dispatch performs zero
// allocations.

// op selects the kernel a worker runs for a task.
type op uint8

const (
	opMatMul op = iota
	opMatMulABT
	opMatMulATBAdd
	opGemmTile
	opPackB
	opGemmTileShared
	opAdam
)

// Per-op minimum work before a kernel fans out to the pool; below it the
// dispatch cost dominates. GEMM work is counted in multiply-adds (each ~1
// load + 1 FMA through the micro-kernel). Elementwise work is counted in
// elements, and the Adam kernel is bound by the divider, not by memory, as
// long as its seven slab streams fit in L2: BenchmarkAdamStepSizes on the
// 2-vCPU CI-class Xeon gives 0.44 ns/element inline up to 131k elements and
// 0.59 beyond, while a two-way split costs 82 µs against 58 µs inline at
// 131k (waking a parked worker is tens of µs there, not the ~2 µs of a
// warm GEMM dispatch), breaks even at 262k (150 vs 156 µs) and wins from
// there (330k, the paper's surrogate: 175 vs 197 µs; 1M: 405 vs 610 µs).
// So the whole paper model fans out and nothing smaller does.
//
// Those are the figures of the day the thresholds were set. Measured again
// while sizing the AVX-512 kernels, the micro-benchmarks have turned the
// other way on the same VM — BenchmarkAdamStep 235 µs at GOMAXPROCS=2
// against 209 at 1, BenchmarkTrainStep 962 against 837 — and yet forcing
// the training-size operations inline loses 8–10 % of ops_per_s on the live
// ensemble_paper run (4 of 4 pairs). The two disagree and the cause is not
// established; the live run is what the thresholds serve, so they stay.
const (
	gemmParallelThreshold     = 1 << 16
	elemwiseParallelThreshold = 1 << 18
)

// threshold returns the op's minimum fan-out work in the op's own units.
func (t *task) threshold() int {
	if t.op == opAdam {
		return elemwiseParallelThreshold
	}
	return gemmParallelThreshold
}

// task is one contiguous index range [i0, i1) of a parallel kernel — rows,
// columns, macro-tiles or slab elements depending on op — plus the operands
// the kernel needs. It is sent by value; the struct must stay free of
// per-call heap references beyond the operands themselves.
type task struct {
	op        op
	dst, a, b *Matrix
	bias      []float32
	gk        gemmKind
	ep        Epilogue
	// shared is the slab-wide packed B buffer of the shared-B driver;
	// k0/kc locate the current blockK slab of the shared dimension.
	shared []float32
	k0, kc int
	vals   []float32
	grads  []float32
	m, v   []float32
	alpha  float32
	beta1  float32
	beta2  float32
	eps    float32
	i0, i1 int
	wg     *sync.WaitGroup
}

// run executes the task's range.
func (t *task) run() {
	switch t.op {
	case opMatMul:
		matMulRange(t.dst, t.a, t.b, t.i0, t.i1)
	case opMatMulABT:
		matMulABTRange(t.dst, t.a, t.b, t.i0, t.i1)
	case opMatMulATBAdd:
		matMulATBAddRange(t.dst, t.a, t.b, t.i0, t.i1)
	case opGemmTile:
		gemmTileRange(t, t.i0, t.i1)
	case opPackB:
		packBRange(t, t.i0, t.i1)
	case opGemmTileShared:
		gemmTileSharedRange(t, t.i0, t.i1)
	case opAdam:
		adamRange(t.vals[t.i0:t.i1], t.grads[t.i0:t.i1], t.m[t.i0:t.i1], t.v[t.i0:t.i1], t.alpha, t.beta1, t.beta2, t.eps)
	}
}

var (
	poolOnce sync.Once
	poolSize int
	poolCh   chan task

	// wgPool recycles the per-call WaitGroups so dispatch itself does not
	// allocate. (A stack WaitGroup would escape into the channel.)
	wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startPool launches the worker goroutines on first use. The pool is sized
// to GOMAXPROCS at startup; tasks are tiny and independent, so a queue a few
// times deeper than the pool keeps every worker fed.
func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	poolCh = make(chan task, 4*poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range poolCh {
				t.run()
				t.wg.Done()
			}
		}()
	}
}

// parallel splits [0, n) into contiguous chunks and runs t's kernel on each.
// Below the op's work threshold (or single-proc) it runs inline. The
// caller's goroutine executes the final chunk itself, and any chunk that
// cannot be enqueued without blocking (pool saturated by other ranks) also
// runs inline, so the scheme cannot deadlock and never waits on a full
// queue. Every kernel is element-independent across chunks — GEMM
// macro-tiles own disjoint output regions whose per-tile math is fixed by
// shape alone — so results are bit-identical to a serial run regardless of
// chunk boundaries or which worker runs which chunk.
func parallel(n, work int, t task) {
	poolOnce.Do(startPool)
	if n < 1 {
		return
	}
	workers := poolSize
	if workers > n {
		workers = n
	}
	if workers <= 1 || work < t.threshold() {
		t.i0, t.i1 = 0, n
		t.run()
		return
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	t.wg = wg
	chunk := (n + workers - 1) / workers
	last := 0
	for i0 := chunk; i0 < n; i0 += chunk {
		// Enqueue the previous chunk, keeping the final one for this
		// goroutine.
		t.i0, t.i1 = last, i0
		wg.Add(1)
		select {
		case poolCh <- t:
		default:
			t.run()
			wg.Done()
		}
		last = i0
	}
	t.i0, t.i1 = last, n
	t.run()
	wg.Wait()
	wgPool.Put(wg)
}
