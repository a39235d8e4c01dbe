package core

// Regression tests and micro-benchmarks for the zero-allocation training
// hot path: the flat parameter/gradient slabs, the fused Adam step, the
// recycled batch storage, and the in-place gradient all-reduce.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"melissa/internal/buffer"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/tensor"
	"melissa/internal/testbuf"
	"melissa/internal/testlevel"
)

// step1 runs one synchronized step and reports continuation, panicking on
// a collective error (impossible for the in-process backend and the
// healthy TCP rings these tests use).
func step1(tr *Trainer, st *rankState) bool {
	cont, err := tr.step(st)
	if err != nil {
		panic(err)
	}
	return cont
}

// hotPathSamples generates deterministic in-range heat samples.
func hotPathSamples(norm FieldNormalizer, count int) []buffer.Sample {
	samples := make([]buffer.Sample, count)
	d := norm.Space.Dim()
	for i := range samples {
		in := make([]float32, d+1)
		for j := 0; j < d; j++ {
			in[j] = float32(100 + (7*i+13*j)%400)
		}
		in[d] = float32(i%10) * 0.1
		out := make([]float32, norm.FieldDim)
		for j := range out {
			out[j] = float32(100 + (11*i+3*j)%400)
		}
		samples[i] = buffer.Sample{SimID: i, Step: i % 10, Input: in, Output: out}
	}
	return samples
}

// batchTensors allocates and fills fresh input/target matrices for a batch.
func batchTensors(norm Normalizer, batch []buffer.Sample) (in, out *tensor.Matrix) {
	in = tensor.New(len(batch), norm.InputDim())
	out = tensor.New(len(batch), norm.OutputDim())
	BuildBatch(norm, batch, in, out)
	return in, out
}

// newHotPathTrainer wires a single-rank trainer to a Reservoir preloaded
// with enough population to yield batches indefinitely (reception stays
// open, so samples recirculate with replacement).
func newHotPathTrainer(tb testing.TB, fieldDim int, hidden []int, batch int) (*Trainer, *rankState) {
	tb.Helper()
	norm := NewHeatNormalizer(fieldDim, 1)
	bb := buffer.NewBlockingArena(buffer.NewReservoir(4096, 0, 7), norm.InputDim(), norm.OutputDim())
	testbuf.Put(tb, bb, hotPathSamples(norm, 512)...)
	cfg := TrainerConfig{
		Ranks:     1,
		BatchSize: batch,
		Model: ModelSpec{
			InputDim:  norm.InputDim(),
			Hidden:    hidden,
			OutputDim: norm.OutputDim(),
			Seed:      1,
		},
		Normalizer: norm,
	}
	tr, err := NewTrainer(cfg, []*buffer.Blocking{bb})
	if err != nil {
		tb.Fatal(err)
	}
	st := tr.newRankState(0)
	tb.Cleanup(func() {
		st.close()
		tr.closeTeams()
	})
	return tr, st
}

// TestTrainStepZeroAlloc pins the headline property of the flat-slab
// refactor: one full synchronized training step — batch extraction, batch
// assembly, forward, backward, gradient sync, fused Adam update, metrics —
// performs zero steady-state heap allocations. (The loss-curve append is
// amortized geometric growth and stays far below one allocation per step.)
//
// It holds at every GEMM kernel level (the drivers share one scratch
// freelist, whatever the kernel covers per call).
func TestTrainStepZeroAlloc(t *testing.T) {
	testlevel.Each(t, func(level string) {
		tr, st := newHotPathTrainer(t, 64, []int{32, 32}, 8)
		for i := 0; i < 5; i++ { // warm scratch, slabs and moment state
			if !step1(tr, st) {
				t.Fatal("trainer stopped during warm-up")
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if !step1(tr, st) {
				t.Fatal("trainer stopped during measurement")
			}
		})
		if avg != 0 {
			t.Fatalf("%s: train step: %v allocs per step in steady state, want 0", level, avg)
		}
	})
}

// teamHelpers counts the tensor team helper goroutines alive in the process.
func teamHelpers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by melissa/internal/tensor.(*Team).parallel"))
}

// TestTrainStepZeroAllocFannedOut is TestTrainStepZeroAlloc at the paper's
// surrogate shape, whose hidden and output layers and Adam update are above
// the fan-out thresholds, on a team forced two wide: AllocsPerRun runs at
// GOMAXPROCS=1, where the trainer would get no team of its own.
func TestTrainStepZeroAllocFannedOut(t *testing.T) {
	tr, st := newHotPathTrainer(t, 1024, []int{256, 256}, 10)
	tr.closeTeams()
	tr.attachTeams(2)
	for i := 0; i < 5; i++ {
		if !step1(tr, st) {
			t.Fatal("trainer stopped during warm-up")
		}
	}
	if teamHelpers() == 0 {
		t.Fatal("no team helper started: the step never fanned out")
	}
	avg := testing.AllocsPerRun(50, func() {
		if !step1(tr, st) {
			t.Fatal("trainer stopped during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("train step on a team: %v allocs per step in steady state, want 0", avg)
	}
}

// TestTrainerClosesTeam runs a trainer whose step fans out (the paper's
// surrogate shape, a team forced two wide) and requires the team's helper
// to be alive during the run and gone once Run has returned, the network it
// leaves behind to keep working, inline, and the weights to be the bytes
// the same run leaves with no team.
func TestTrainerClosesTeam(t *testing.T) {
	if n := teamHelpers(); n != 0 {
		t.Fatalf("%d team helpers alive before the run", n)
	}
	var norm Normalizer = NewHeatNormalizer(1024, 1)
	samples := hotPathSamples(NewHeatNormalizer(1024, 1), 40)
	run := func(width int) (weights []float32, helpers int) {
		bb := buffer.NewBlockingArena(buffer.NewFIFO(0), norm.InputDim(), norm.OutputDim())
		testbuf.Put(t, bb, samples...)
		bb.EndReception()
		tr, err := NewTrainer(TrainerConfig{
			Ranks: 1, BatchSize: 10, Normalizer: norm,
			Model:      ModelSpec{InputDim: norm.InputDim(), Hidden: []int{256, 256}, OutputDim: norm.OutputDim(), Seed: 4},
			OnBatchEnd: func(int) { helpers = max(helpers, teamHelpers()) },
		}, []*buffer.Blocking{bb})
		if err != nil {
			t.Fatal(err)
		}
		tr.closeTeams()
		tr.attachTeams(width)
		if err := runTrainer(t, tr, context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := teamHelpers(); n != 0 {
			t.Fatalf("width %d: %d team helpers alive after Run returned", width, n)
		}
		in, _ := batchTensors(norm, samples[:10])
		tr.Network().Forward(in)
		if n := teamHelpers(); n != 0 {
			t.Fatalf("width %d: a forward after Run started %d team helpers", width, n)
		}
		return tr.Network().FlatParams(), helpers
	}
	inline, _ := run(1)
	fanned, helpers := run(2)
	if helpers != 1 {
		t.Fatalf("%d team helpers during the run, want 1", helpers)
	}
	for i := range inline {
		if math.Float32bits(inline[i]) != math.Float32bits(fanned[i]) {
			t.Fatalf("weight %d: %v on a team, %v inline", i, fanned[i], inline[i])
		}
	}
}

// legacyGradSync emulates the pre-refactor ddp.GradBuffer path: gather
// every per-parameter gradient into a staging buffer and scatter it back
// (the single-rank all-reduce itself was a no-op). Bit-wise this is the
// identity the flat-slab path replaced.
func legacyGradSync(params []*nn.Param, staging []float32) {
	off := 0
	for _, p := range params {
		copy(staging[off:], p.Grad.Data)
		off += p.Size()
	}
	off = 0
	for _, p := range params {
		copy(p.Grad.Data, staging[off:off+p.Size()])
		off += p.Size()
	}
}

// legacyAdam is the historical per-parameter Adam walk (scalar loop, no
// flush of subnormal moments), kept as the differential reference for the
// trajectory tests below. The conversions spell out the unfused rounding
// the amd64 compiler applied.
type legacyAdam struct {
	lr   float64
	step int
	m, v []float32
}

func (a *legacyAdam) Step(params []*nn.Param) {
	if a.m == nil {
		n := 0
		for _, p := range params {
			n += p.Size()
		}
		a.m, a.v = make([]float32, n), make([]float32, n)
	}
	a.step++
	b1, b2, eps := float32(0.9), float32(0.999), float32(1e-8)
	alpha := float32(a.lr * math.Sqrt(1-math.Pow(0.999, float64(a.step))) / (1 - math.Pow(0.9, float64(a.step))))
	off := 0
	for _, p := range params {
		m, v := a.m[off:off+p.Size()], a.v[off:off+p.Size()]
		for j, g := range p.Grad.Data {
			m[j] = float32(b1*m[j]) + float32((1-b1)*g)
			v[j] = float32(b2*v[j]) + float32(float32((1-b2)*g)*g)
			p.Value.Data[j] -= float32(alpha*m[j]) / (float32(math.Sqrt(float64(v[j]))) + eps)
		}
		off += p.Size()
	}
}

// TestFlatStepMatchesLegacyPerParamPath locks the bit-for-bit equivalence
// of the fused slab update against the pre-refactor trajectory: staged
// gather/scatter gradient sync followed by the per-parameter Adam walk.
// Any reordering of the float math in the fused kernel fails this test.
func TestFlatStepMatchesLegacyPerParamPath(t *testing.T) {
	const steps = 25
	var norm Normalizer = NewHeatNormalizer(48, 1)
	samples := hotPathSamples(NewHeatNormalizer(48, 1), 7*steps)

	flatNet := nn.ArchitectureMLP(norm.InputDim(), []int{24, 24}, norm.OutputDim(), 9)
	legacyNet := nn.ArchitectureMLP(norm.InputDim(), []int{24, 24}, norm.OutputDim(), 9)
	flatOpt := opt.NewAdam(1e-3)
	legacyOpt := &legacyAdam{lr: 1e-3}
	loss := nn.NewMSELoss()
	staging := make([]float32, legacyNet.NumParams())

	for s := 0; s < steps; s++ {
		batch := samples[s*7 : (s+1)*7]
		in, out := batchTensors(norm, batch)

		flatNet.ZeroGrad()
		pred := flatNet.Forward(in)
		flatLoss := loss.Forward(pred, out)
		flatNet.Backward(loss.Backward(pred, out))
		flatOpt.StepFlat(flatNet.FlatParams(), flatNet.FlatGrads())

		legacyNet.ZeroGrad()
		pred = legacyNet.Forward(in)
		legacyLoss := loss.Forward(pred, out)
		legacyNet.Backward(loss.Backward(pred, out))
		legacyGradSync(legacyNet.Params(), staging)
		legacyOpt.Step(legacyNet.Params())

		if flatLoss != legacyLoss {
			t.Fatalf("step %d: loss diverged: flat %v vs legacy %v", s, flatLoss, legacyLoss)
		}
	}
	flat, legacy := flatNet.FlatParams(), legacyNet.FlatParams()
	for i := range flat {
		if flat[i] != legacy[i] {
			t.Fatalf("weight %d diverged: flat %v vs legacy %v", i, flat[i], legacy[i])
		}
	}
}

// TestTrainerMatchesLegacyLoopWithTailBatch drives the full Trainer over a
// FIFO stream whose length is not divisible by the batch size, and checks
// the recorded loss trajectory bit-for-bit against a hand-rolled legacy
// loop that allocates fresh tensors for the tail batch and steps Adam
// per-parameter. This pins both the prefix-view tail handling and the
// end-to-end fixed-seed determinism of the refactored loop.
func TestTrainerMatchesLegacyLoopWithTailBatch(t *testing.T) {
	const batchSize = 10
	const nSamples = 53 // 5 full batches + tail of 3
	var norm Normalizer = NewHeatNormalizer(32, 1)
	samples := hotPathSamples(NewHeatNormalizer(32, 1), nSamples)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 3}

	// Legacy reference: FIFO order is insertion order, so consecutive
	// chunks replicate the buffer's batching exactly.
	refNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	refOpt := &legacyAdam{lr: 1e-3}
	loss := nn.NewMSELoss()
	var refLosses []float64
	for start := 0; start < nSamples; start += batchSize {
		end := min(start+batchSize, nSamples)
		in, out := batchTensors(norm, samples[start:end])
		refNet.ZeroGrad()
		pred := refNet.Forward(in)
		refLosses = append(refLosses, loss.Forward(pred, out))
		refNet.Backward(loss.Backward(pred, out))
		refOpt.Step(refNet.Params())
	}

	// Refactored trainer over the same stream.
	bb := buffer.NewBlockingArena(buffer.NewFIFO(0), norm.InputDim(), norm.OutputDim())
	testbuf.Put(t, bb, samples...)
	bb.EndReception()
	tr, err := NewTrainer(TrainerConfig{
		Ranks: 1, BatchSize: batchSize, Model: spec, Normalizer: norm,
	}, []*buffer.Blocking{bb})
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}

	got := tr.Metrics().TrainLoss()
	if len(got) != len(refLosses) {
		t.Fatalf("trainer recorded %d steps, legacy loop %d", len(got), len(refLosses))
	}
	for i, p := range got {
		if p.Value != refLosses[i] {
			t.Fatalf("step %d: loss %v, legacy %v", i, p.Value, refLosses[i])
		}
	}
	refFlat, gotFlat := refNet.FlatParams(), tr.Network().FlatParams()
	for i := range refFlat {
		if refFlat[i] != gotFlat[i] {
			t.Fatalf("weight %d diverged after tail batch: %v vs %v", i, gotFlat[i], refFlat[i])
		}
	}
}

// fixedSeedRun trains ranks in-process ranks to the end of pre-filled, ended
// Reservoirs (seeds 21+r, the samples dealt round-robin): every input of
// the run is fixed, so its trajectory and final state are too.
func fixedSeedRun(t *testing.T, ranks, samples int, hidden []int, capacity int) *Trainer {
	t.Helper()
	var norm Normalizer = NewHeatNormalizer(32, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: hidden, OutputDim: norm.OutputDim(), Seed: 11}
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewReservoir(capacity, 0, uint64(21+r)), norm.InputDim(), norm.OutputDim())
	}
	for i, s := range hotPathSamples(NewHeatNormalizer(32, 1), samples) {
		testbuf.Put(t, bufs[i%ranks], s)
	}
	for _, b := range bufs {
		b.EndReception()
	}
	tr, err := NewTrainer(TrainerConfig{
		Ranks: ranks, BatchSize: 10, Model: spec, Normalizer: norm,
	}, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainerRunDeterministic re-runs an identical multi-rank configuration
// and requires bit-identical loss trajectories — the fixed-seed determinism
// the paper's reproducibility protocol relies on (§3.1).
func TestTrainerRunDeterministic(t *testing.T) {
	run := func() []LossPoint {
		return fixedSeedRun(t, 2, 160, []int{16}, 256).Metrics().TrainLoss()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trajectory lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			t.Fatalf("step %d: %v vs %v", i, a[i].Value, b[i].Value)
		}
	}
}

// TestFixedSeedRunSameAtEveryKernelLevel pins the whole step — forward,
// backward, all-reduce, sharded Adam — to the bytes it produced before the
// GEMM had kernel levels: 480 samples, hidden 64×48, to the end of the
// Reservoirs on 1, 2 and 3 ranks (48, 24, 16 batches); sha256 of the
// weights' little-endian bytes and of CaptureState's optimizer bytes, as
// recorded in CHANGES.md at PR 23 on the AVX2 kernels. Every level must
// reproduce them: the kernels differ in how many elements a call covers,
// never in how an element is computed.
func TestFixedSeedRunSameAtEveryKernelLevel(t *testing.T) {
	want := map[int][2]string{
		1: {"7d12ff64dedab3b0122bc5944685b52fa28c60641d719003ebadee75c0b37605", "6b12a40999a4a93760f2c065b3c934c559bb40b94e55aa5b8fb88041163c1b4a"},
		2: {"c5b9019083147f9d0066d51c331674aa82bef6fdf41262e69d240e087da5e2f8", "f5451b084a0e8d08d919f4a074ad26c94c38a4b9a50bfde997b861a0084547ce"},
		3: {"6ddbc0f28c2d3087e4c02e2a92b942a3b74ffaea34e1afd34eecae7cd96852c2", "ee53724b75d93a9742030d27c432bd2749b889a2c026828ae12d1bf6d0421757"},
	}
	testlevel.Each(t, func(level string) {
		for ranks := 1; ranks <= 3; ranks++ {
			tr := fixedSeedRun(t, ranks, 480, []int{64, 48}, 512)
			var weights []byte
			for _, v := range tr.Network().FlatParams() {
				weights = binary.LittleEndian.AppendUint32(weights, math.Float32bits(v))
			}
			_, optState, err := tr.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			got := [2]string{fmt.Sprintf("%x", sha256.Sum256(weights)), fmt.Sprintf("%x", sha256.Sum256(optState))}
			if got != want[ranks] {
				t.Errorf("%s, %d ranks: weights %s optimizer %s, want %v", level, ranks, got[0], got[1], want[ranks])
			}
		}
	})
}

// BenchmarkTrainStep measures one synchronized training step at the
// paper's surrogate shape (6 → 256 → 256 → field) on a single rank:
// Reservoir batch extraction, batch assembly, forward, backward, gradient
// sync and the fused Adam update. 0 allocs/op in steady state.
func BenchmarkTrainStep(b *testing.B) {
	tr, st := newHotPathTrainer(b, 1024, []int{256, 256}, 10)
	for i := 0; i < 3; i++ {
		step1(tr, st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !step1(tr, st) {
			b.Fatal("trainer stopped")
		}
	}
}

// BenchmarkAdamStep measures the fused flat-slab Adam update at the
// paper's parameter count (≈330k parameters), on a team as wide as
// GOMAXPROCS as a lone trainer rank runs it.
func BenchmarkAdamStep(b *testing.B) {
	net := nn.ArchitectureMLP(6, []int{256, 256}, 1024, 1)
	grads := net.FlatGrads()
	for i := range grads {
		grads[i] = 0.01
	}
	a := opt.NewAdam(1e-3)
	team := tensor.NewTeam(runtime.GOMAXPROCS(0))
	b.Cleanup(team.Close)
	a.SetTeam(team)
	a.StepFlat(net.FlatParams(), grads) // size moment slabs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.StepFlat(net.FlatParams(), grads)
	}
}

// BenchmarkBuildBatch measures normalized batch assembly into preallocated
// matrices (10 samples × 1k field).
func BenchmarkBuildBatch(b *testing.B) {
	var norm Normalizer = NewHeatNormalizer(1024, 1)
	samples := hotPathSamples(NewHeatNormalizer(1024, 1), 10)
	in := tensor.New(len(samples), norm.InputDim())
	out := tensor.New(len(samples), norm.OutputDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildBatch(norm, samples, in, out)
	}
}
