package core

// Equivalence tests and benchmarks for the bucketed-overlap gradient sync:
// overlap must be bit-identical to the serial bucketed path across ranks
// and tail batches, a transport-backed multi-process rank group must train
// the exact same trajectory as the in-process channel group, and the
// overlapped step must stay allocation-free.

import (
	"context"
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

// runSyncMode trains a fresh multi-rank trainer over a deterministic
// stream with the given sync mode and returns the loss trajectory and the
// final rank-0 weights.
func runSyncMode(t *testing.T, mode GradSyncMode, ranks int) ([]LossPoint, []float32) {
	t.Helper()
	norm := NewHeatNormalizer(48, 1)
	// 87 samples over 4 ranks at batch 5: every rank ends on a short tail.
	bufs := fifoRankBufs(t, norm, ranks, 87)
	tr, err := NewTrainer(TrainerConfig{
		Ranks:     ranks,
		BatchSize: 5,
		GradSync:  mode,
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
// produces bit-for-bit the same trajectory as running the same bucket
// collectives serially after the full backward pass — across 4 ranks,
// including tail batches.
func TestOverlapMatchesSerial(t *testing.T) {
	overlapLoss, overlapW := runSyncMode(t, SyncOverlap, 4)
	serialLoss, serialW := runSyncMode(t, SyncSerial, 4)
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

// TestTCPRanksMatchInProcessRanks is the transport-equivalence test: two
// single-rank trainers synchronized over real TCP sockets must train the
// exact same loss trajectory and weights as one two-rank in-process
// trainer fed identical per-rank streams.
func TestTCPRanksMatchInProcessRanks(t *testing.T) {
	const ranks = 2
	const nSamples = 53 // tail batches on both ranks
	norm := NewHeatNormalizer(32, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 23}

	// Reference: both ranks in one trainer over the channel backend.
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
func multiRankHotTrainer(tb testing.TB, ranks int, mode GradSyncMode, fieldDim int, hidden []int, batch int) (*Trainer, []*rankState) {
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
		GradSync:  mode,
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
// the overlapped multi-rank path: a steady-state synchronized step — batch
// extraction, forward, hook-launched bucket collectives, drain, fused Adam
// — performs no heap allocations on any rank, at every GEMM kernel level.
func TestTrainStepZeroAllocOverlap4Ranks(t *testing.T) {
	testlevel.Each(t, func(level string) {
		const ranks = 4
		const runs = 100
		tr, sts := multiRankHotTrainer(t, ranks, SyncOverlap, 64, []int{32, 32}, 8)
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
		for i := 0; i < 5; i++ { // warm scratch, slabs, link buffers
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
func benchMultiRankTrainStep(b *testing.B, ranks int, mode GradSyncMode) {
	tr, sts := multiRankHotTrainer(b, ranks, mode, 1024, []int{256, 256}, 10)
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

// BenchmarkTrainStepOverlap4Ranks: bucket all-reduces launched during
// backward (the default mode).
func BenchmarkTrainStepOverlap4Ranks(b *testing.B) {
	benchMultiRankTrainStep(b, 4, SyncOverlap)
}

// BenchmarkTrainStepOverlap2Ranks is the benchmark workload's shape
// (ensemble_2rank: two in-process ranks, overlap sync, the paper's model):
// the step in which each rank applies half of the update.
func BenchmarkTrainStepOverlap2Ranks(b *testing.B) {
	benchMultiRankTrainStep(b, 2, SyncOverlap)
}

// BenchmarkTrainStepSerial4Ranks: the same bucket collectives issued after
// the full backward pass — the overlap win is the gap to this baseline.
func BenchmarkTrainStepSerial4Ranks(b *testing.B) {
	benchMultiRankTrainStep(b, 4, SyncSerial)
}
