package ddp

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/tensor"
)

// scaledMean averages buf across ranks the way the trainer does: the sum
// collective, then one scale by 1/n, which the trainer folds into its
// update pass (opt.Adam.StepSum's scale).
func scaledMean(c *Comm, rank int, buf []float32) {
	c.AllReduceSum(rank, buf)
	if n := c.Size(); n > 1 {
		s := 1 / float32(n)
		for i := range buf {
			buf[i] *= s
		}
	}
}

// runRanks launches one goroutine per rank and waits for completion.
func runRanks(n int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

func TestChunkRange(t *testing.T) {
	wantLo := []int{0, 4, 7}
	wantHi := []int{4, 7, 10}
	for i := 0; i < 3; i++ {
		lo, hi := ChunkRange(10, 3, i)
		if lo != wantLo[i] || hi != wantHi[i] {
			t.Fatalf("ChunkRange(10,3,%d) = [%d,%d), want [%d,%d)", i, lo, hi, wantLo[i], wantHi[i])
		}
	}
	// More ranks than elements: some chunks empty, bounds monotone and
	// tiling [0, length).
	prev := 0
	for i := 0; i < 4; i++ {
		lo, hi := ChunkRange(2, 4, i)
		if lo != prev || hi < lo {
			t.Fatalf("ChunkRange(2,4,%d) = [%d,%d), prev end %d", i, lo, hi, prev)
		}
		prev = hi
	}
	if prev != 2 {
		t.Fatalf("chunks do not cover length: end %d", prev)
	}
}

func TestAllReduceSumSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		c := NewCommunicator(n)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = []float32{float32(r + 1), float32(10 * (r + 1)), float32(100 * (r + 1))}
		}
		var wantSum [3]float32
		for _, b := range bufs {
			for i, v := range b {
				wantSum[i] += v
			}
		}
		runRanks(n, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
		for r := 0; r < n; r++ {
			for i := 0; i < 3; i++ {
				if bufs[r][i] != wantSum[i] {
					t.Fatalf("n=%d rank %d: got %v, want %v", n, r, bufs[r], wantSum)
				}
			}
		}
	}
}

func TestAllReduceLenNotDivisible(t *testing.T) {
	// Buffer length 5 across 4 ranks exercises uneven and empty chunks.
	n := 4
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, 5)
		for i := range bufs[r] {
			bufs[r][i] = float32(r*5 + i)
		}
	}
	want := make([]float32, 5)
	for _, b := range bufs {
		for i, v := range b {
			want[i] += v
		}
	}
	runRanks(n, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
	for r := 0; r < n; r++ {
		for i := range want {
			if bufs[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, bufs[r][i], want[i])
			}
		}
	}
}

func TestAllReduceBufferShorterThanRanks(t *testing.T) {
	n := 5
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = []float32{1, 2} // only 2 elements, 5 ranks
	}
	runRanks(n, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
	for r := 0; r < n; r++ {
		if bufs[r][0] != 5 || bufs[r][1] != 10 {
			t.Fatalf("rank %d: %v", r, bufs[r])
		}
	}
}

// TestScaledMean: see scaledMean.
func TestScaledMean(t *testing.T) {
	n := 4
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = []float32{float32(r)} // 0,1,2,3 → mean 1.5
	}
	runRanks(n, func(rank int) { scaledMean(c, rank, bufs[rank]) })
	for r := 0; r < n; r++ {
		if bufs[r][0] != 1.5 {
			t.Fatalf("rank %d: %v, want 1.5", r, bufs[r][0])
		}
	}
}

// Property: all ranks end with identical buffers equal to the element-wise
// sum (within float tolerance), for random sizes and rank counts.
func TestAllReduceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 1 + int(seed%6)
		length := int(seed>>3%64) + 1
		c := NewCommunicator(n)
		bufs := make([][]float32, n)
		want := make([]float64, length)
		for r := range bufs {
			bufs[r] = make([]float32, length)
			for i := range bufs[r] {
				bufs[r][i] = float32(rng.NormFloat64())
				want[i] += float64(bufs[r][i])
			}
		}
		runRanks(n, func(rank int) { c.AllReduceSum(rank, bufs[rank]) })
		for r := 1; r < n; r++ {
			for i := range bufs[r] {
				if bufs[r][i] != bufs[0][i] {
					return false // ranks must agree bit-exactly
				}
			}
		}
		for i := range want {
			if math.Abs(float64(bufs[0][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sumFromRoot is the all-reduce in which only root contributes: every other
// rank joins with zeros, as a drained rank joins each gradient reduce, and
// x + 0 is exact, so every rank ends with root's values bit for bit. It is
// what a one-to-all copy is on this communicator, which has no other.
func sumFromRoot(c *Comm, rank, root int, buf []float32) {
	if rank != root {
		clear(buf)
	}
	c.AllReduceSum(rank, buf)
}

// rendezvous is the all-reduce used only to meet: a rank's sum needs a term
// from every rank, so none returns before all have entered. The trainer's
// per-step status reduce relies on exactly this to make every rank leave on
// the same step.
func rendezvous(c *Comm, rank int) {
	var token [1]float32
	c.AllReduceSum(rank, token[:])
}

// TestSumFromRoot: see sumFromRoot.
func TestSumFromRoot(t *testing.T) {
	n := 4
	c := NewCommunicator(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = []float32{float32(r), float32(r)}
	}
	runRanks(n, func(rank int) { sumFromRoot(c, rank, 2, bufs[rank]) })
	for r := 0; r < n; r++ {
		if bufs[r][0] != 2 || bufs[r][1] != 2 {
			t.Fatalf("rank %d: %v", r, bufs[r])
		}
	}
}

// TestRendezvous: see rendezvous.
func TestRendezvous(t *testing.T) {
	n := 8
	c := NewCommunicator(n)
	var mu sync.Mutex
	phase1 := 0
	fail := false
	runRanks(n, func(rank int) {
		mu.Lock()
		phase1++
		mu.Unlock()
		rendezvous(c, rank)
		mu.Lock()
		if phase1 != n {
			fail = true
		}
		mu.Unlock()
		rendezvous(c, rank) // reusable
	})
	if fail {
		t.Fatal("a rank left the all-reduce before every rank had entered")
	}
}

// TestFlatGradSlabViews verifies the invariant gradient sync relies on: a
// network's parameter gradients are contiguous views into the slab that
// FlatGrads exposes, in Params() order.
func TestFlatGradSlabViews(t *testing.T) {
	net := nn.ArchitectureMLP(3, []int{4}, 2, 1)
	flat := net.FlatGrads()
	if len(flat) != net.NumParams() {
		t.Fatalf("grad slab len %d, want %d", len(flat), net.NumParams())
	}
	for i := range flat {
		flat[i] = float32(i + 1)
	}
	off := 0
	for _, p := range net.Params() {
		for i, g := range p.Grad.Data {
			if g != float32(off+i+1) {
				t.Fatalf("param %s grad[%d] = %v, not a slab view", p.Name, i, g)
			}
		}
		off += len(p.Value.Data)
	}
}

// TestDataParallelEquivalence verifies the core DDP property: n replicas
// training on n disjoint batch shards with gradient averaging produce
// exactly the same weights as a single model trained on the concatenated
// batch. This is what keeps the paper's multi-GPU runs semantically
// equivalent to large-batch single-GPU training.
func TestDataParallelEquivalence(t *testing.T) {
	const n = 4
	const shardSize = 5
	rng := rand.New(rand.NewPCG(21, 22))

	build := func() *nn.Network { return nn.ArchitectureMLP(3, []int{8}, 2, 77) }

	// Shared input: n shards of shardSize rows each.
	shards := make([]*tensor.Matrix, n)
	targets := make([]*tensor.Matrix, n)
	full := tensor.New(n*shardSize, 3)
	fullTarget := tensor.New(n*shardSize, 2)
	for s := 0; s < n; s++ {
		shards[s] = tensor.New(shardSize, 3)
		targets[s] = tensor.New(shardSize, 2)
		for r := 0; r < shardSize; r++ {
			for c := 0; c < 3; c++ {
				v := float32(rng.NormFloat64())
				shards[s].Row(r)[c] = v
				full.Row(s*shardSize + r)[c] = v
			}
			for c := 0; c < 2; c++ {
				v := float32(rng.NormFloat64())
				targets[s].Row(r)[c] = v
				fullTarget.Row(s*shardSize + r)[c] = v
			}
		}
	}

	// Reference: single model, full batch, SGD.
	ref := build()
	loss := nn.NewMSELoss()
	const lr = 0.1
	const steps = 5
	for i := 0; i < steps; i++ {
		ref.ZeroGrad()
		ref.Backward(loss.Backward(ref.Forward(full), fullTarget))
		for _, p := range ref.Params() {
			tensor.Axpy(-lr, p.Grad.Data, p.Value.Data)
		}
	}

	// DDP: n replicas on shards with gradient mean.
	comm := NewCommunicator(n)
	replicas := make([]*nn.Network, n)
	for r := range replicas {
		replicas[r] = build()
	}
	runRanks(n, func(rank int) {
		net := replicas[rank]
		l := nn.NewMSELoss()
		for i := 0; i < steps; i++ {
			net.ZeroGrad()
			net.Backward(l.Backward(net.Forward(shards[rank]), targets[rank]))
			scaledMean(comm, rank, net.FlatGrads())
			tensor.Axpy(-lr, net.FlatGrads(), net.FlatParams())
		}
	})

	// All replicas identical.
	for r := 1; r < n; r++ {
		pa, pb := replicas[0].Params(), replicas[r].Params()
		for i := range pa {
			for j := range pa[i].Value.Data {
				if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
					t.Fatalf("replicas 0 and %d diverged at param %d[%d]", r, i, j)
				}
			}
		}
	}
	// Replica ≈ reference (float reduction order differs, so tolerance).
	pr, p0 := ref.Params(), replicas[0].Params()
	for i := range pr {
		for j := range pr[i].Value.Data {
			d := math.Abs(float64(pr[i].Value.Data[j] - p0[i].Value.Data[j]))
			if d > 1e-4 {
				t.Fatalf("DDP diverged from large-batch reference: param %d[%d] diff %v", i, j, d)
			}
		}
	}
}

// TestDDPWithAdam checks that replicas stay bit-identical across Adam steps
// (each replica applies the same averaged gradient to the same state).
func TestDDPWithAdam(t *testing.T) {
	const n = 3
	comm := NewCommunicator(n)
	replicas := make([]*nn.Network, n)
	for r := range replicas {
		replicas[r] = nn.ArchitectureMLP(2, []int{4}, 2, 55)
	}
	rng := rand.New(rand.NewPCG(1, 9))
	inputs := make([]*tensor.Matrix, n)
	targets := make([]*tensor.Matrix, n)
	for r := 0; r < n; r++ {
		inputs[r] = tensor.New(4, 2)
		targets[r] = tensor.New(4, 2)
		for i := range inputs[r].Data {
			inputs[r].Data[i] = float32(rng.NormFloat64())
			targets[r].Data[i] = float32(rng.NormFloat64())
		}
	}
	runRanks(n, func(rank int) {
		net := replicas[rank]
		l := nn.NewMSELoss()
		a := opt.NewAdam(1e-3)
		for i := 0; i < 10; i++ {
			net.ZeroGrad()
			net.Backward(l.Backward(net.Forward(inputs[rank]), targets[rank]))
			scaledMean(comm, rank, net.FlatGrads())
			a.StepFlat(net.FlatParams(), net.FlatGrads())
		}
	})
	for r := 1; r < n; r++ {
		pa, pb := replicas[0].Params(), replicas[r].Params()
		for i := range pa {
			for j := range pa[i].Value.Data {
				if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
					t.Fatalf("Adam replicas diverged (rank %d, param %d[%d])", r, i, j)
				}
			}
		}
	}
}
