package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The kernels in this package parallelize across independent work ranges: a
// blocked GEMM fans out macro-tiles, the skinny drivers 16-column panels of
// b (a·b) or row groups of b (a·bᵀ), the naive kernels row (or column)
// ranges, and the fused optimizer slab chunks. A fan-out runs on a Team: the
// cores one owner — a trainer rank — may use. Everyone else passes a nil
// *Team and runs every kernel inline on its own goroutine.
//
// The owner rule is measured, not a precaution. The package-level worker
// pool this replaced let every caller fan out and parked its workers
// between fan-outs; on a 2-vCPU VM a parked goroutine takes 66–95 µs to
// wake, which is what made BenchmarkTrainStep slower at GOMAXPROCS=2
// (950–1,080 µs) than at 1 (785–800 µs). A helper that stays runnable after
// its last chunk removes the wake from the step, but spinning is only worth
// its CPU where the cores are otherwise idle: where two ranks or two serve
// replicas already keep both cores busy, fanning out cost ensemble_2rank
// 2–10 % and serve_batched 4–9 %. So the helper yields (runtime.Gosched)
// while it spins, letting any runnable producer or ingest goroutine go
// first; it parks after spinWindow; and only a caller that owns the
// process's cores — a trainer rank whose share of GOMAXPROCS is two or
// more; never a serve replica — gets a Team at all. On that VM
// BenchmarkTrainStep at GOMAXPROCS=2 now reads 670–700 µs.

// op selects the kernel a task runs.
type op uint8

const (
	opMatMul op = iota
	opMatMulABT
	opMatMulATBAdd
	opGemmTile
	opPackB
	opGemmTileShared
	opSkinnyNN
	opSkinnyNT
	opAdam
)

// Per-op minimum work before a kernel fans out; below it the hand-off costs
// more than the second core returns. GEMM work is counted in multiply-adds,
// elementwise work in elements. At 1<<16 the 82k-madd products of
// stream_ingest's 9k-parameter model (≈ 4 µs each) fanned out and kept the
// helper spinning beside the ingest path, which lost 20 %; at 1<<19 nothing
// of that model fans out, while the paper surrogate's hidden and output
// layers (655k and 2.6M madds per batch of ten) still do. The Adam kernel
// is bound by the divider: split two ways it breaks even near 262k
// elements, and the paper surrogate's 330k parameters are above that.
const (
	gemmParallelThreshold     = 1 << 19
	elemwiseParallelThreshold = 1 << 18
)

// spinWindow is how long a helper stays runnable after its last chunk before
// it parks: longer than the gaps between the fan-outs of one training step,
// far shorter than the pause of a starved trainer.
const spinWindow = 300 * time.Microsecond

// chunksPerMember is how many chunks a fan-out has per team member, so a
// helper that arrives late still finds work and a slow chunk is not the
// whole job.
const chunksPerMember = 4

// forceChunks is the test hook: when positive, every fan-out on a team runs
// with this many chunks (at most one per work unit), whatever its work.
var forceChunks int

// threshold returns the op's minimum fan-out work in the op's own units.
func (t *task) threshold() int {
	if t.op == opAdam {
		return elemwiseParallelThreshold
	}
	return gemmParallelThreshold
}

// task is one contiguous index range [i0, i1) of a parallel kernel — rows,
// columns, panels, macro-tiles or slab elements depending on op — plus the
// operands the kernel needs.
type task struct {
	op        op
	dst, a, b *Matrix
	bias      []float32
	gk        gemmKind
	ep        Epilogue
	// shared is a packed operand every chunk reads: the slab-wide packed B
	// of the shared-B driver (k0/kc locate its blockK slab of the shared
	// dimension), or all of A for the skinny a·b.
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
	case opSkinnyNN:
		skinnyNNRange(t, t.i0, t.i1)
	case opSkinnyNT:
		skinnyNTRange(t, t.i0, t.i1)
	case opAdam:
		adamRange(t.vals[t.i0:t.i1], t.grads[t.i0:t.i1], t.m[t.i0:t.i1], t.v[t.i0:t.i1], t.alpha, t.beta1, t.beta2, t.eps)
	}
}

// Team is a claim-based fork-join over width cores: the goroutine that owns
// it plus width−1 helper goroutines, started on the first fan-out. A
// fan-out publishes one job of fixed chunks; the owner claims chunks itself
// and waits only for chunks a helper has already claimed, so a helper that
// is slow to arrive costs nothing. Chunks partition independent output
// elements, so a result is bit-identical to the inline run whoever runs
// which chunk.
//
// A nil *Team runs every kernel inline, and so does a closed one. Only its
// owner may fan out on a Team; a second goroutine that tries while a fan-out
// is in flight runs inline instead of waiting.
type Team struct {
	width int
	// job is the current fan-out, zero between them; it is written only
	// while no chunk is unclaimed or running.
	job task
	n   int // its work units
	// claims is gen<<32 | chunks<<16 | next: the job's generation, its chunk
	// count and the next unclaimed chunk. A claim is a compare-and-swap on
	// the whole word, so a helper holding an old generation cannot claim in
	// a new job.
	claims   atomic.Uint64
	done     atomic.Uint32 // chunks of the current job finished
	busy     atomic.Bool   // a fan-out is in flight, or the team is closed
	closed   atomic.Bool
	sleeping atomic.Int32 // helpers parked, or about to park, on wake
	started  bool         // helpers launched; guarded by busy
	wake     chan struct{}
	exited   sync.WaitGroup
}

// NewTeam returns a team over width cores, or nil (inline) when width < 2.
func NewTeam(width int) *Team {
	if width < 2 {
		return nil
	}
	return &Team{width: width, wake: make(chan struct{}, width-1)}
}

// Close stops the helpers and returns once every one has exited; the team
// runs inline from then on. It must not race with its owner's fan-outs.
func (tm *Team) Close() {
	if tm == nil || tm.closed.Swap(true) {
		return
	}
	for !tm.busy.CompareAndSwap(false, true) {
		runtime.Gosched() // a fan-out in flight ends first
	}
	close(tm.wake)
	tm.exited.Wait()
}

// parallel splits [0, n) into chunks and runs t's kernel on each: on the
// team when its work reaches the op's threshold, inline otherwise.
func (tm *Team) parallel(n, work int, t task) {
	chunks := 1
	if tm != nil && n > 1 {
		switch {
		case forceChunks > 0:
			chunks = min(n, forceChunks)
		case work >= t.threshold():
			chunks = min(n, chunksPerMember*tm.width)
		}
	}
	if chunks < 2 || !tm.busy.CompareAndSwap(false, true) {
		t.i0, t.i1 = 0, n
		t.run()
		return
	}
	if !tm.started {
		tm.started = true
		tm.exited.Add(tm.width - 1)
		for i := 1; i < tm.width; i++ {
			go tm.help()
		}
	}
	tm.job, tm.n = t, n
	tm.done.Store(0)
	gen := tm.claims.Load()>>32 + 1
	tm.claims.Store(gen<<32 | uint64(chunks)<<16)
	for i := tm.sleeping.Load(); i > 0; i-- {
		select {
		case tm.wake <- struct{}{}:
		default:
		}
	}
	for tm.runChunk() {
	}
	// Every chunk is claimed; the ones left are running on a helper.
	for spins := 1; tm.done.Load() != uint32(chunks); spins++ {
		if spins%(1<<12) == 0 {
			runtime.Gosched() // a helper preempted mid-chunk needs a core
		}
	}
	tm.job = task{} // hold no operand past its call
	tm.busy.Store(false)
}

// runChunk claims the current job's next chunk and runs it; false when
// every chunk is claimed.
func (tm *Team) runChunk() bool {
	for {
		c := tm.claims.Load()
		next, chunks := int(c&0xffff), int(c>>16&0xffff)
		if next >= chunks {
			return false
		}
		if tm.claims.CompareAndSwap(c, c+1) {
			t := tm.job
			t.i0, t.i1 = next*tm.n/chunks, (next+1)*tm.n/chunks
			t.run()
			tm.done.Add(1)
			return true
		}
	}
}

// hasWork reports whether the current job has an unclaimed chunk.
func (tm *Team) hasWork() bool {
	c := tm.claims.Load()
	return c&0xffff < c>>16&0xffff
}

// help is a helper's loop: run chunks while there are any, stay runnable
// (yielding) for spinWindow after the last one, then park until a fan-out
// wakes it. Parking announces itself in sleeping before it re-checks for
// work, and a fan-out publishes its job before it reads sleeping, so one of
// the two always sees the other.
func (tm *Team) help() {
	defer tm.exited.Done()
	last := time.Now()
	for !tm.closed.Load() {
		if tm.runChunk() {
			last = time.Now()
			continue
		}
		if time.Since(last) < spinWindow {
			runtime.Gosched()
			continue
		}
		tm.sleeping.Add(1)
		if !tm.hasWork() && !tm.closed.Load() {
			<-tm.wake
		}
		tm.sleeping.Add(-1)
		last = time.Now()
	}
}
