package core

// Equivalence tests and benchmarks for the multi-rank step: a group whose
// bucket all-reduces overlap backward, and a transport-backed multi-process
// rank group, must train the exact same trajectory as the in-process group
// (whose update pass sums the gradients the ring would, after the whole
// backward) across ranks and tail batches, and the multi-rank step must
// stay allocation-free.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/ddp"
	"melissa/internal/testbuf"
	"melissa/internal/testlevel"
	"melissa/internal/transport"
)

// fifoRankBufs splits nSamples deterministic samples round-robin across
// ranks FIFO buffers and closes reception, so extraction order is fixed
// and the last step of each rank is a tail batch when counts don't divide.
func fifoRankBufs(t testing.TB, norm FieldNormalizer, ranks, nSamples int) []*buffer.Blocking {
	t.Helper()
	samples := hotPathSamples(norm, nSamples)
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewFIFO(0), norm.InputDim(), norm.OutputDim())
	}
	for i, s := range samples {
		testbuf.Put(t, bufs[i%ranks], s)
	}
	for _, b := range bufs {
		b.EndReception()
	}
	return bufs
}

// runInProcess trains a fresh in-process multi-rank trainer over a
// deterministic stream and returns the loss trajectory and the final
// rank-0 weights.
func runInProcess(t *testing.T, ranks int) ([]LossPoint, []float32) {
	t.Helper()
	norm := NewHeatNormalizer(48, 1)
	// 87 samples over 4 ranks at batch 5: every rank ends on a short tail.
	bufs := fifoRankBufs(t, norm, ranks, 87)
	tr, err := NewTrainer(TrainerConfig{
		Ranks:     ranks,
		BatchSize: 5,
		Model: ModelSpec{
			InputDim:  norm.InputDim(),
			Hidden:    []int{24, 24},
			OutputDim: norm.OutputDim(),
			Seed:      13,
		},
		Normalizer: norm,
	}, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	weights := append([]float32(nil), tr.Network().FlatParams()...)
	return tr.Metrics().TrainLoss(), weights
}

// TestOverlapMatchesSerial pins the headline equivalence of the overlap
// refactor: launching each layer bucket's all-reduce during backward
// produces bit-for-bit the trajectory of summing the gradients after the
// full backward pass — across 4 ranks, including tail batches. The
// overlapped ranks sit two to a process on a loopback ring, exact float32;
// the serial reference is one process of 4 ranks, whose update pass sums
// the four gradient slabs in the ring's order once backward is done.
func TestOverlapMatchesSerial(t *testing.T) {
	overlapLoss, overlapW := runCodecShape(t, 2, 2, transport.CodecF32)
	serialLoss, serialW := runInProcess(t, 4)
	if len(overlapLoss) == 0 || len(overlapLoss) != len(serialLoss) {
		t.Fatalf("trajectory lengths %d vs %d", len(overlapLoss), len(serialLoss))
	}
	for i := range overlapLoss {
		if overlapLoss[i].Value != serialLoss[i].Value {
			t.Fatalf("step %d: overlap loss %v, serial %v", i, overlapLoss[i].Value, serialLoss[i].Value)
		}
	}
	for i := range overlapW {
		if overlapW[i] != serialW[i] {
			t.Fatalf("weight %d diverged: overlap %v vs serial %v", i, overlapW[i], serialW[i])
		}
	}
}

// tcpTrainerGroup builds one single-local-rank trainer per global rank,
// all joined by loopback TCP communicators — the in-process replica of the
// multi-process melissa-server deployment.
func tcpTrainerGroup(t *testing.T, ranks int, bufs []*buffer.Blocking, spec ModelSpec, norm Normalizer) []*Trainer {
	t.Helper()
	listeners := make([]*transport.RingListener, ranks)
	addrs := make([]string, ranks)
	for r := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[r] = l
		addrs[r] = l.Addr()
	}
	comms := make([]*ddp.Comm, ranks)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := range comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ring, err := listeners[rank].ConnectContext(t.Context(), rank, addrs, 10*time.Second, transport.RingOptions{})
			if err != nil {
				errs[rank] = err
				return
			}
			comms[rank] = ddp.NewTCPComm(ring)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})

	trainers := make([]*Trainer, ranks)
	for r := range trainers {
		tr, err := NewTrainer(TrainerConfig{
			Ranks:      1,
			Comm:       comms[r],
			BatchSize:  5,
			Model:      spec,
			Normalizer: norm,
		}, bufs[r:r+1])
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = tr
	}
	return trainers
}

// TestTCPRanksMatchInProcessRanks is the transport-equivalence test:
// single-rank trainers synchronized over real TCP sockets must train the
// exact same loss trajectory and weights as one in-process trainer with as
// many ranks fed identical per-rank streams. The in-process ranks sum their
// gradients in the update pass, the TCP ranks on the ring; two ranks'
// addition commutes, so only 3 and 4 pin the pass to the ring's order.
func TestTCPRanksMatchInProcessRanks(t *testing.T) {
	for _, ranks := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) { tcpMatchesInProcess(t, ranks) })
	}
}

func tcpMatchesInProcess(t *testing.T, ranks int) {
	const nSamples = 53 // tail batches on every rank
	norm := NewHeatNormalizer(32, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 23}

	// Reference: both ranks in one trainer over the in-process backend.
	refBufs := fifoRankBufs(t, norm, ranks, nSamples)
	ref, err := NewTrainer(TrainerConfig{
		Ranks: ranks, BatchSize: 5, Model: spec, Normalizer: norm,
	}, refBufs)
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrainer(t, ref, context.Background()); err != nil {
		t.Fatal(err)
	}

	// TCP group: one trainer per rank, identical streams, run in lockstep.
	tcpBufs := fifoRankBufs(t, norm, ranks, nSamples)
	trainers := tcpTrainerGroup(t, ranks, tcpBufs, spec, norm)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r, tr := range trainers {
		wg.Add(1)
		go func(rank int, tr *Trainer) {
			defer wg.Done()
			errs[rank] = tr.Run(context.Background())
		}(r, tr)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}

	refLoss := ref.Metrics().TrainLoss()
	tcpLoss := trainers[0].Metrics().TrainLoss() // global rank 0 owns metrics
	if len(refLoss) == 0 || len(refLoss) != len(tcpLoss) {
		t.Fatalf("trajectory lengths: in-process %d vs tcp %d", len(refLoss), len(tcpLoss))
	}
	for i := range refLoss {
		if refLoss[i].Value != tcpLoss[i].Value {
			t.Fatalf("step %d: in-process loss %v, tcp %v", i, refLoss[i].Value, tcpLoss[i].Value)
		}
	}
	for r, tr := range trainers {
		got := tr.Network().FlatParams()
		want := ref.nets[r].FlatParams()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tcp rank %d weight %d: %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

// multiRankHotTrainer wires a ranks-wide trainer to preloaded Reservoirs
// that never drain, for lockstep step-level benchmarks and alloc gates.
func multiRankHotTrainer(tb testing.TB, ranks int, fieldDim int, hidden []int, batch int) (*Trainer, []*rankState) {
	tb.Helper()
	norm := NewHeatNormalizer(fieldDim, 1)
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewReservoir(4096, 0, uint64(7+r)), norm.InputDim(), norm.OutputDim())
		testbuf.Put(tb, bufs[r], hotPathSamples(norm, 256)...)
	}
	tr, err := NewTrainer(TrainerConfig{
		Ranks:     ranks,
		BatchSize: batch,
		Model: ModelSpec{
			InputDim:  norm.InputDim(),
			Hidden:    hidden,
			OutputDim: norm.OutputDim(),
			Seed:      1,
		},
		Normalizer: norm,
	}, bufs)
	if err != nil {
		tb.Fatal(err)
	}
	sts := make([]*rankState, ranks)
	for r := range sts {
		sts[r] = tr.newRankState(r)
		tb.Cleanup(sts[r].close)
	}
	return tr, sts
}

// TestTrainStepZeroAllocOverlap4Ranks extends the zero-allocation gate to
// the in-process multi-rank path: a steady-state synchronized step — batch
// extraction, status all-reduce, forward, backward, the barrier, the update
// pass summing four slabs in ring order — performs no heap allocations on
// any rank, at every GEMM kernel level.
func TestTrainStepZeroAllocOverlap4Ranks(t *testing.T) {
	testlevel.Each(t, func(level string) {
		const ranks = 4
		const runs = 100
		tr, sts := multiRankHotTrainer(t, ranks, 64, []int{32, 32}, 8)
		var wg sync.WaitGroup
		for r := 1; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < runs+1+5; i++ {
					if !step1(tr, sts[rank]) {
						t.Error("peer rank stopped")
						return
					}
				}
			}(r)
		}
		for i := 0; i < 5; i++ { // warm scratch and slabs
			if !step1(tr, sts[0]) {
				t.Fatal("trainer stopped during warm-up")
			}
		}
		avg := testing.AllocsPerRun(runs, func() {
			if !step1(tr, sts[0]) {
				t.Fatal("trainer stopped during measurement")
			}
		})
		wg.Wait()
		if avg != 0 {
			t.Fatalf("%s: overlapped train step: %v allocs per step in steady state, want 0", level, avg)
		}
	})
}

// benchMultiRankTrainStep measures one synchronized multi-rank step at the
// paper's surrogate shape, with peer ranks in lockstep goroutines so the
// timed loop sees the full collective cost.
func benchMultiRankTrainStep(b *testing.B, ranks int) {
	tr, sts := multiRankHotTrainer(b, ranks, 1024, []int{256, 256}, 10)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < b.N+3; i++ {
				step1(tr, sts[rank])
			}
		}(r)
	}
	for i := 0; i < 3; i++ {
		step1(tr, sts[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !step1(tr, sts[0]) {
			b.Fatal("trainer stopped")
		}
	}
	b.StopTimer()
	wg.Wait()
}

// BenchmarkTrainStepOverlap4Ranks: four in-process ranks, each summing four
// gradient slabs over its quarter of the update.
func BenchmarkTrainStepOverlap4Ranks(b *testing.B) {
	benchMultiRankTrainStep(b, 4)
}

// BenchmarkTrainStepOverlap2Ranks is the benchmark workload's shape
// (ensemble_2rank: two in-process ranks, the paper's model): the step in
// which each rank sums both gradient slabs and applies half of the update.
func BenchmarkTrainStepOverlap2Ranks(b *testing.B) {
	benchMultiRankTrainStep(b, 2)
}
