package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"melissa/internal/buffer"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/telemetry"
	"melissa/internal/tensor"
	"melissa/internal/testbuf"
	"melissa/internal/testlevel"
	"melissa/internal/testwait"
)

const testFieldDim = 16

// synthSample builds a deterministic raw sample whose field is a smooth
// function of the parameters, standing in for the solver output.
func synthSample(simID, step int, rng *rand.Rand) buffer.Sample {
	params := make([]float32, 5)
	for i := range params {
		params[i] = float32(100 + 400*rng.Float64())
	}
	tSec := float64(step) * 0.01
	input := append(params, float32(tSec))
	field := make([]float32, testFieldDim)
	for i := range field {
		field[i] = 100 + 0.5*(params[0]+params[i%5])*float32(0.5+0.5*math.Exp(-tSec))
	}
	return buffer.Sample{SimID: simID, Step: step, Input: input, Output: field}
}

func synthSamples(n int, seed uint64) []buffer.Sample {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]buffer.Sample, n)
	for i := range out {
		out[i] = synthSample(i/10, i%10+1, rng)
	}
	return out
}

func testNormalizer() FieldNormalizer { return NewHeatNormalizer(testFieldDim, 1.0) }

func TestHeatNormalizerApply(t *testing.T) {
	norm := testNormalizer()
	if norm.InputDim() != 6 || norm.OutputDim() != testFieldDim {
		t.Fatalf("dims %d/%d", norm.InputDim(), norm.OutputDim())
	}
	s := buffer.Sample{
		Input:  []float32{100, 300, 500, 200, 400, 0.5},
		Output: make([]float32, testFieldDim),
	}
	for i := range s.Output {
		s.Output[i] = 300 // mid-range
	}
	in := make([]float32, 6)
	out := make([]float32, testFieldDim)
	norm.Apply(s, in, out)
	wantIn := []float32{0, 0.5, 1, 0.25, 0.75, 0.5}
	for i := range wantIn {
		if math.Abs(float64(in[i]-wantIn[i])) > 1e-6 {
			t.Fatalf("in = %v, want %v", in, wantIn)
		}
	}
	for _, v := range out {
		if math.Abs(float64(v)-0.5) > 1e-6 {
			t.Fatalf("out = %v, want all 0.5", out)
		}
	}
}

func TestHeatNormalizerDenormalize(t *testing.T) {
	norm := testNormalizer()
	f := []float32{0, 0.5, 1}
	norm.DenormalizeField(f)
	want := []float32{100, 300, 500}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("denorm %v", f)
		}
	}
}

func TestRawMSE(t *testing.T) {
	norm := testNormalizer()
	if got := norm.RawMSE(1); got != 160000 {
		t.Fatalf("RawMSE(1) = %v, want 400²", got)
	}
}

func TestBuildBatch(t *testing.T) {
	norm := testNormalizer()
	batch := synthSamples(4, 3)
	in := tensor.New(4, norm.InputDim())
	out := tensor.New(4, norm.OutputDim())
	BuildBatch(norm, batch, in, out)
	// Every normalized value must be finite and inputs within [0,1]+slack.
	for _, v := range in.Data {
		if v < -0.01 || v > 1.01 {
			t.Fatalf("input out of range: %v", v)
		}
	}
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN in normalized output")
		}
	}
}

func TestModelSpecBuild(t *testing.T) {
	spec := ModelSpec{InputDim: 6, Hidden: []int{8, 8}, OutputDim: testFieldDim, Seed: 1}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() == 0 {
		t.Fatal("empty network")
	}
	if _, err := (ModelSpec{InputDim: 0, OutputDim: 1}).Build(); err == nil {
		t.Fatal("expected error for invalid dims")
	}
}

func TestValidate(t *testing.T) {
	norm := testNormalizer()
	samples := synthSamples(20, 5)
	set := NewValidationSet(norm, samples)
	if set.Len() != 20 {
		t.Fatalf("set len %d", set.Len())
	}
	net, _ := ModelSpec{InputDim: 6, Hidden: []int{4}, OutputDim: testFieldDim, Seed: 2}.Build()
	// Chunked evaluation must match single-shot evaluation.
	a := Validate(net, set, 3)
	b := Validate(net, set, 1000)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("chunked %v vs full %v", a, b)
	}
	if a <= 0 {
		t.Fatal("validation loss should be positive for an untrained net")
	}
	if v := Validate(net, nil, 8); v != 0 {
		t.Fatal("nil set must give 0")
	}
}

func TestValidateZeroAlloc(t *testing.T) {
	norm := testNormalizer()
	// 530 samples at chunk 8 forward a 512-row block and an 18-row tail
	// block, so the gate covers the activation pools for each.
	set := NewValidationSet(norm, synthSamples(530, 5))
	net, _ := ModelSpec{InputDim: 6, Hidden: []int{8, 8}, OutputDim: testFieldDim, Seed: 2}.Build()
	Validate(net, set, 8) // size the activation buffers
	allocs := testing.AllocsPerRun(20, func() {
		Validate(net, set, 8)
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %.0f objects per pass, want 0 (reusable view header regression)", allocs)
	}
}

// chunkwiseMSE is Validate as one forward per chunk-row segment: the
// reference the block forwards must reproduce bit for bit.
func chunkwiseMSE(net *nn.Network, set *ValidationSet, chunk int) float64 {
	var sum float64
	var view tensor.Matrix
	cols := set.Out.Cols
	for start := 0; start < set.Len(); start += chunk {
		end := min(start+chunk, set.Len())
		set.In.ViewRows(&view, start, end)
		sum += tensor.SqDiffSum(net.Forward(&view).Data, set.Out.Data[start*cols:end*cols])
	}
	return sum / float64(set.Len()*cols)
}

// TestValidateBlocksBitEqual pins that Validate's block forwards leave
// the MSE's float64 bits as one forward per chunk has them: at every
// kernel level, inline and on a team of two, for a set of whole chunks and
// one with a tail segment, with chunks under the skinny GEMM bound and
// over it (the trainer validates in chunks of four batches).
func TestValidateBlocksBitEqual(t *testing.T) {
	norm := NewHeatNormalizer(128, 1)
	team := tensor.NewTeam(2)
	defer team.Close()
	testlevel.Each(t, func(level string) {
		for _, n := range []int{400, 437} {
			set := NewValidationSet(norm, hotPathSamples(norm, n))
			for _, tm := range []*tensor.Team{nil, team} {
				net, _ := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{32}, OutputDim: norm.OutputDim(), Seed: 4}.Build()
				net.SetTeam(tm)
				for _, chunk := range []int{8, 40} {
					want := chunkwiseMSE(net, set, chunk)
					if got := Validate(net, set, chunk); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, %d rows, team %v, chunk %d: MSE %v, %v chunk by chunk", level, n, tm != nil, chunk, got, want)
					}
				}
			}
		}
	})
}

// runTrainer is tr.Run under the suite's pipeline deadline: a run that
// never returns fails here with every goroutine's stack.
func runTrainer(t testing.TB, tr *Trainer, ctx context.Context) error {
	t.Helper()
	return testwait.Run(t, "Trainer.Run to return", func() error { return tr.Run(ctx) })
}

// testConfig is the test suite's trainer: a 16-unit MLP on testNormalizer's
// samples, four per rank per step, validated every 5 steps.
func testConfig(ranks int) TrainerConfig {
	norm := testNormalizer()
	return TrainerConfig{
		Ranks:            ranks,
		BatchSize:        4,
		Model:            ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 9},
		Normalizer:       norm,
		LearningRate:     1e-3,
		Schedule:         opt.Halving{Initial: 1e-3, EverySamples: 1 << 20},
		Validation:       NewValidationSet(norm, synthSamples(12, 99)),
		ValidateEvery:    5,
		TrackOccurrences: true,
	}
}

func newTestTrainer(t *testing.T, ranks, maxBatches int, kind buffer.Kind, mutate ...func(*TrainerConfig)) (*Trainer, []*buffer.Blocking) {
	t.Helper()
	norm := testNormalizer()
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		p, err := buffer.New(buffer.Config{Kind: kind, Capacity: 1000, Threshold: 5, Seed: uint64(r + 1)})
		if err != nil {
			t.Fatal(err)
		}
		bufs[r] = buffer.NewBlockingArena(p, norm.InputDim(), norm.OutputDim())
	}
	cfg := testConfig(ranks)
	cfg.MaxBatches = maxBatches
	for _, m := range mutate {
		m(&cfg)
	}
	tr, err := NewTrainer(cfg, bufs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, bufs
}

func TestTrainerSingleRankDrains(t *testing.T) {
	tr, bufs := newTestTrainer(t, 1, 0, buffer.FIFOKind)
	testbuf.Put(t, bufs[0], synthSamples(60, 7)...)
	bufs[0].EndReception()
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics()
	if m.Telemetry().Value(telemetry.Batches) != 15 { // 60 samples / batch 4
		t.Fatalf("batches %d, want 15", m.Telemetry().Value(telemetry.Batches))
	}
	if m.Telemetry().Value(telemetry.Samples) != 60 {
		t.Fatalf("samples %d, want 60", m.Telemetry().Value(telemetry.Samples))
	}
	if len(m.TrainLoss()) != 15 {
		t.Fatalf("train loss points %d", len(m.TrainLoss()))
	}
	if len(m.Validation()) != 3 { // every 5 batches
		t.Fatalf("validation points %d", len(m.Validation()))
	}
}

func TestTrainerLossDecreases(t *testing.T) {
	tr, bufs := newTestTrainer(t, 1, 0, buffer.ReservoirKind)
	go func() {
		// Stream the same distribution repeatedly; the Reservoir repeats
		// samples, giving the optimizer enough steps to converge.
		testbuf.Put(t, bufs[0], synthSamples(200, 11)...)
		bufs[0].EndReception()
	}()
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	val := tr.Metrics().Validation()
	if len(val) < 2 {
		t.Fatalf("need ≥2 validation points, got %d", len(val))
	}
	first, last := val[0].Value, val[len(val)-1].Value
	if last >= first {
		t.Fatalf("validation did not improve: %v -> %v", first, last)
	}
}

func TestTrainerMultiRankReplicasIdentical(t *testing.T) {
	const ranks = 3
	tr, bufs := newTestTrainer(t, ranks, 0, buffer.FIFOKind)
	samples := synthSamples(72, 13)
	for i, s := range samples {
		testbuf.Put(t, bufs[i%ranks], s)
	}
	for _, b := range bufs {
		b.EndReception()
	}
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	// All replicas must hold identical weights after synchronized training.
	p0 := tr.nets[0].Params()
	for r := 1; r < ranks; r++ {
		pr := tr.nets[r].Params()
		for i := range p0 {
			for j := range p0[i].Value.Data {
				if p0[i].Value.Data[j] != pr[i].Value.Data[j] {
					t.Fatalf("rank %d diverged at param %d[%d]", r, i, j)
				}
			}
		}
	}
	if tr.Metrics().Telemetry().Value(telemetry.Samples) != 72 {
		t.Fatalf("samples %d, want 72", tr.Metrics().Telemetry().Value(telemetry.Samples))
	}
}

func TestTrainerUnevenRankDrain(t *testing.T) {
	// One rank gets twice the data: the other rank must keep joining
	// collectives with zero gradients until both drain.
	const ranks = 2
	tr, bufs := newTestTrainer(t, ranks, 0, buffer.FIFOKind)
	testbuf.Put(t, bufs[0], synthSamples(40, 17)...)
	testbuf.Put(t, bufs[1], synthSamples(8, 18)...)
	for _, b := range bufs {
		b.EndReception()
	}
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tr.Metrics().Telemetry().Value(telemetry.Samples); got != 48 {
		t.Fatalf("samples %d, want 48", got)
	}
	if got := tr.Metrics().Telemetry().Value(telemetry.Batches); got != 10 { // max(40,8)/4
		t.Fatalf("batches %d, want 10", got)
	}
}

func TestTrainerMaxBatches(t *testing.T) {
	tr, bufs := newTestTrainer(t, 2, 3, buffer.ReservoirKind)
	for i, s := range synthSamples(100, 19) {
		testbuf.Put(t, bufs[i%2], s)
	}
	// No EndReception: without MaxBatches this would run indefinitely.
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tr.Metrics().Telemetry().Value(telemetry.Batches); got != 3 {
		t.Fatalf("batches %d, want 3", got)
	}
}

// TestTrainerContextCancel: a cancel stops the run at the next step
// boundary whether the ranks are training (a Reservoir above threshold
// serves batches forever) or parked waiting for data, and leaves the
// buffers as open as it found them — "stop waiting" is the run's, "nothing
// more will arrive" is the producer's.
func TestTrainerContextCancel(t *testing.T) {
	t.Run("training", func(t *testing.T) {
		trained := make(chan struct{})
		var once sync.Once
		tr, bufs := newTestTrainer(t, 2, 0, buffer.ReservoirKind, func(c *TrainerConfig) {
			c.OnBatchEnd = func(int) { once.Do(func() { close(trained) }) }
		})
		for i, s := range synthSamples(50, 23) {
			testbuf.Put(t, bufs[i%2], s)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- tr.Run(ctx) }()
		testwait.Recv(t, trained, "the first batch")
		cancel()
		if err := testwait.Recv(t, done, "Trainer.Run to return after cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want the cancellation", err)
		}
		for r, b := range bufs {
			if st := testbuf.Peek(b); st.Len == 0 || st.Drained {
				t.Fatalf("rank %d: cancel touched the buffer (len %d, drained %v)", r, st.Len, st.Drained)
			}
		}
	})
	t.Run("waiting", func(t *testing.T) {
		tr, bufs := newTestTrainer(t, 2, 0, buffer.FIFOKind)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- tr.Run(ctx) }()
		for _, b := range bufs {
			testwait.Until(t, "the rank to wait for data", func() bool {
				return testbuf.Peek(b).ParkedGet == 1
			})
		}
		cancel()
		if err := testwait.Recv(t, done, "Trainer.Run to return after cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want the cancellation", err)
		}
		if testbuf.Peek(bufs[0]).Drained {
			t.Fatal("cancel ended reception")
		}
		if got := tr.Metrics().Telemetry().Value(telemetry.Batches); got != 0 {
			t.Fatalf("trained %d batches from empty buffers", got)
		}
	})
}

func TestTrainerOccurrenceTracking(t *testing.T) {
	// Reception ends only once the Reservoir has served ten batches from
	// twenty samples, so some of them have certainly repeated.
	repeated := make(chan struct{})
	tr, bufs := newTestTrainer(t, 1, 0, buffer.ReservoirKind, func(c *TrainerConfig) {
		c.OnBatchEnd = func(batches int) {
			if batches == 10 {
				close(repeated)
			}
		}
	})
	samples := synthSamples(20, 29)
	go func() {
		testbuf.Put(t, bufs[0], samples...)
		<-repeated
		bufs[0].EndReception()
	}()
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	occ := tr.Metrics().Occurrences()
	if len(occ) == 0 || len(occ) > 20 {
		t.Fatalf("unique occurrences %d", len(occ))
	}
	hist := tr.Metrics().OccurrenceHistogram()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != len(occ) {
		t.Fatalf("histogram total %d != unique %d", total, len(occ))
	}
}

func TestTrainerConfigValidation(t *testing.T) {
	norm := testNormalizer()
	good := TrainerConfig{Ranks: 1, BatchSize: 1, Normalizer: norm,
		Model: ModelSpec{InputDim: 6, OutputDim: testFieldDim}}
	cases := []func(*TrainerConfig){
		func(c *TrainerConfig) { c.Ranks = 0 },
		func(c *TrainerConfig) { c.BatchSize = 0 },
		func(c *TrainerConfig) { c.Normalizer = nil },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		bufs := []*buffer.Blocking{buffer.NewBlockingArena(buffer.NewFIFO(0), 6, testFieldDim)}
		if cfg.Ranks == 0 {
			bufs = nil
		}
		if _, err := NewTrainer(cfg, bufs); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Buffer count mismatch.
	if _, err := NewTrainer(good, nil); err == nil {
		t.Fatal("expected buffer count error")
	}
}

// OccurrenceHistogram buckets occurrence counts: hist[k] = number of unique
// samples selected exactly k times (Figure 3).
func (m *Metrics) OccurrenceHistogram() map[int]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	hist := make(map[int]int)
	for _, c := range m.occurrences {
		hist[c]++
	}
	return hist
}
