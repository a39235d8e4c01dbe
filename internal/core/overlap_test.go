package core

// Equivalence tests and benchmarks for the multi-rank step: a group that
// spans processes, whose ranks all-reduce each layer bucket over a socket
// ring after backward, must train the exact same trajectory as the
// in-process group (whose update pass sums the gradients in the ring's
// order) across ranks and tail batches, and the multi-rank step must stay
// allocation-free in both layouts.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"melissa/internal/buffer"
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

// TestOverlapMatchesSerial pins that a group spanning processes trains
// bit-for-bit the trajectory of one process — across 4 ranks, including
// tail batches. The ring's ranks sit two to a process on a loopback ring,
// exact float32, and all-reduce each layer bucket after backward; the
// reference is one process of 4 ranks, whose update pass sums the four
// gradient slabs in the ring's order. (The name is kept from when the
// ring's collectives overlapped backward.)
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
	trainers := codecTrainerGroup(t, ranks, 1, transport.CodecF32, tcpBufs, spec, norm)
	tcpLoss, _ := runTrainerGroup(t, trainers) // global rank 0 owns metrics

	refLoss := ref.Metrics().TrainLoss()
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

// hotRankBufs preloads one Reservoir per rank that never drains, for
// lockstep step-level benchmarks and alloc gates.
func hotRankBufs(tb testing.TB, norm FieldNormalizer, ranks int) []*buffer.Blocking {
	tb.Helper()
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewReservoir(4096, 0, uint64(7+r)), norm.InputDim(), norm.OutputDim())
		testbuf.Put(tb, bufs[r], hotPathSamples(norm, 256)...)
	}
	return bufs
}

// hotSpec is the seeded model the hot-path trainers train.
func hotSpec(norm FieldNormalizer, hidden []int) ModelSpec {
	return ModelSpec{InputDim: norm.InputDim(), Hidden: hidden, OutputDim: norm.OutputDim(), Seed: 1}
}

// multiRankHotTrainer wires a ranks-wide in-process trainer to hotRankBufs
// and returns its step: step(r) runs one synchronized step of local rank r.
func multiRankHotTrainer(tb testing.TB, ranks int, fieldDim int, hidden []int, batch int) (step func(rank int) bool) {
	tb.Helper()
	norm := NewHeatNormalizer(fieldDim, 1)
	tr, err := NewTrainer(TrainerConfig{
		Ranks:      ranks,
		BatchSize:  batch,
		Model:      hotSpec(norm, hidden),
		Normalizer: norm,
	}, hotRankBufs(tb, norm, ranks))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tr.closeTeams)
	sts := make([]*rankState, ranks)
	for r := range sts {
		sts[r] = tr.newRankState(r)
	}
	return func(rank int) bool { return step1(tr, sts[rank]) }
}

// tcpHotTrainers is multiRankHotTrainer over a loopback TCP ring: procs
// single-rank trainers, one per process of the ring, whose step(p) runs one
// synchronized step of process p's rank.
func tcpHotTrainers(tb testing.TB, procs int, fieldDim int, hidden []int, batch int) (step func(rank int) bool) {
	tb.Helper()
	norm := NewHeatNormalizer(fieldDim, 1)
	trainers := codecTrainerGroup(tb, procs, 1, transport.CodecF32, hotRankBufs(tb, norm, procs), hotSpec(norm, hidden), norm,
		func(c *TrainerConfig) { c.BatchSize = batch })
	sts := make([]*rankState, procs)
	for p, tr := range trainers {
		sts[p] = tr.newRankState(0)
		tb.Cleanup(tr.closeTeams)
	}
	return func(rank int) bool { return step1(trainers[rank], sts[rank]) }
}

// lockstepAllocs runs warm steps of every rank, then measures rank 0's
// steps while the other ranks step in lockstep goroutines, and returns the
// heap allocations per step: every rank's, since AllocsPerRun counts the
// process's.
func lockstepAllocs(t *testing.T, ranks int, step func(rank int) bool) float64 {
	const runs, warm = 100, 5
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < runs+1+warm; i++ {
				if !step(rank) {
					t.Error("peer rank stopped")
					return
				}
			}
		}(r)
	}
	for i := 0; i < warm; i++ { // warm scratch and slabs
		if !step(0) {
			t.Fatal("trainer stopped during warm-up")
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		if !step(0) {
			t.Fatal("trainer stopped during measurement")
		}
	})
	wg.Wait()
	return avg
}

// TestTrainStepZeroAllocOverlap4Ranks extends the zero-allocation gate to
// the in-process multi-rank path: a steady-state synchronized step — batch
// extraction, status all-reduce, forward, backward, the barrier, the update
// pass summing four slabs in ring order — performs no heap allocations on
// any rank, at every GEMM kernel level.
func TestTrainStepZeroAllocOverlap4Ranks(t *testing.T) {
	testlevel.Each(t, func(level string) {
		const ranks = 4
		if avg := lockstepAllocs(t, ranks, multiRankHotTrainer(t, ranks, 64, []int{32, 32}, 8)); avg != 0 {
			t.Fatalf("%s: overlapped train step: %v allocs per step in steady state, want 0", level, avg)
		}
	})
}

// TestTrainStepZeroAllocTCP2Ranks is the zero-allocation gate for the
// socket-ring step: two single-rank trainers on a loopback ring, each
// all-reducing its gradient slab one layer bucket at a time after backward,
// perform no heap allocations per step.
func TestTrainStepZeroAllocTCP2Ranks(t *testing.T) {
	if avg := lockstepAllocs(t, 2, tcpHotTrainers(t, 2, 64, []int{32, 32}, 8)); avg != 0 {
		t.Fatalf("ring train step: %v allocs per step in steady state, want 0", avg)
	}
}

// benchLockstep measures one synchronized step of rank 0, with the other
// ranks in lockstep goroutines so the timed loop sees the full collective
// cost.
func benchLockstep(b *testing.B, ranks int, step func(rank int) bool) {
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < b.N+3; i++ {
				step(rank)
			}
		}(r)
	}
	for i := 0; i < 3; i++ {
		step(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !step(0) {
			b.Fatal("trainer stopped")
		}
	}
	b.StopTimer()
	wg.Wait()
}

// BenchmarkTrainStepOverlap4Ranks: four in-process ranks at the paper's
// surrogate shape, each summing four gradient slabs over its quarter of the
// update.
func BenchmarkTrainStepOverlap4Ranks(b *testing.B) {
	benchLockstep(b, 4, multiRankHotTrainer(b, 4, 1024, []int{256, 256}, 10))
}

// BenchmarkTrainStepOverlap2Ranks is the benchmark workload's shape
// (ensemble_2rank: two in-process ranks, the paper's model): the step in
// which each rank sums both gradient slabs and applies half of the update.
func BenchmarkTrainStepOverlap2Ranks(b *testing.B) {
	benchLockstep(b, 2, multiRankHotTrainer(b, 2, 1024, []int{256, 256}, 10))
}

// BenchmarkTrainStepTCP2Ranks times the step of a group that spans
// processes: two single-rank trainers on a loopback TCP ring at the paper's
// shape, each all-reducing its gradient slab one layer bucket at a time
// after backward. Both trainers share this one process, each with a team as
// wide as GOMAXPROCS, so they contend for the same cores: on a 2-vCPU VM
// it reads ≈ 4.5 ms against ≈ 1.2 ms for BenchmarkTrainStepOverlap2Ranks.
// Compare it only with itself.
func BenchmarkTrainStepTCP2Ranks(b *testing.B) {
	benchLockstep(b, 2, tcpHotTrainers(b, 2, 1024, []int{256, 256}, 10))
}
