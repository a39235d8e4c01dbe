package melissa

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"melissa/internal/testwait"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Simulations = 6
	cfg.GridN = 8
	cfg.StepsPerSim = 8
	cfg.MaxConcurrentClients = 3
	cfg.Hidden = []int{16}
	cfg.BatchSize = 4
	cfg.Capacity = 100
	cfg.Threshold = 8
	cfg.ValidationSims = 1
	cfg.ValidateEvery = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Simulations = 0 },
		func(c *Config) { c.GridN = 0 },
		func(c *Config) { c.StepsPerSim = 0 },
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Buffer = "bogus" },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Dt = -0.01 },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Capacity = -5 },
		func(c *Config) { c.Threshold = -1 },
		func(c *Config) { c.Threshold = c.Capacity + 1 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig()
		mutate(&cfg)
		if _, err := runOnline(t, cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestRunOnlineEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	// How many batches a live run trains depends on how fast the clients
	// are: as few as 12 when they outrun the trainer, and then the net is
	// still predicting below 0 K. So the first clients park one step short
	// of finishing, which leaves the Reservoir above its threshold and
	// serving, until 200 batches have trained.
	prob := &parkingProblem{Problem: Heat(), parkAt: cfg.StepsPerSim - 1, parked: make(chan struct{}, 1), gate: make(chan struct{}), openAfter: 200 * int64(cfg.BatchSize)}
	prob.free.Store(int64(cfg.ValidationSims))
	cfg.Problem = prob
	res, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate == nil {
		t.Fatal("no surrogate")
	}
	want := cfg.Simulations * cfg.StepsPerSim
	if res.UniqueSamples != want {
		t.Fatalf("unique %d, want %d", res.UniqueSamples, want)
	}
	if res.Samples < want || res.Batches == 0 {
		t.Fatalf("samples %d batches %d", res.Samples, res.Batches)
	}
	if res.ValidationMSE <= 0 {
		t.Fatal("no validation recorded")
	}
	if res.ValidationMSEKelvin <= res.ValidationMSE {
		t.Fatal("Kelvin-scale MSE should exceed normalized MSE")
	}
	if len(res.ValidationCurve) == 0 || len(res.TrainCurve) == 0 {
		t.Fatal("curves missing")
	}
	if res.Throughput <= 0 || res.WallTime <= 0 {
		t.Fatal("throughput accounting broken")
	}

	// The surrogate predicts fields of the right shape within the
	// physically plausible range (trained on [100,500] K).
	p := HeatParams{TIC: 300, TX1: 200, TY1: 400, TX2: 250, TY2: 350}
	field := res.Surrogate.PredictHeat(p, 0.04)
	if len(field) != cfg.GridN*cfg.GridN {
		t.Fatalf("field length %d", len(field))
	}
	for _, v := range field {
		if v < 0 || v > 700 || math.IsNaN(v) {
			t.Fatalf("implausible prediction %v", v)
		}
	}
}

func TestRunOnlineDeterministicConfigSurface(t *testing.T) {
	// Two runs with the same seed produce the same unique-sample set size
	// and the same network shape. (Wall-clock interleaving means training
	// order — and thus exact weights — can differ across live runs; full
	// determinism is a property of the simulated mode.)
	cfg := tinyConfig()
	a, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueSamples != b.UniqueSamples {
		t.Fatal("unique sample sets differ across seeded runs")
	}
	if a.Surrogate.NumParams() != b.Surrogate.NumParams() {
		t.Fatal("architectures differ")
	}
}

func TestSurrogateSaveLoadRoundtrip(t *testing.T) {
	cfg := tinyConfig()
	res, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Surrogate.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSurrogate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m := loaded.Meta(); m.Problem != HeatName || m.GridN != cfg.GridN || m.StepsPerSim != cfg.StepsPerSim {
		t.Fatalf("metadata not restored: %+v", m)
	}
	p := HeatParams{TIC: 150, TX1: 450, TY1: 300, TX2: 200, TY2: 380}
	a := res.Surrogate.PredictHeat(p, 0.05)
	b := loaded.PredictHeat(p, 0.05)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded surrogate predicts differently")
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	res, err := runOnline(t, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := []HeatParams{
		{TIC: 300, TX1: 200, TY1: 400, TX2: 250, TY2: 350},
		{TIC: 120, TX1: 480, TY1: 160, TX2: 440, TY2: 220},
	}
	ts := []float64{0.02, 0.06}
	batch, err := res.Surrogate.PredictBatchHeat(ps, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		single := res.Surrogate.PredictHeat(ps[i], ts[i])
		for j := range single {
			if math.Abs(single[j]-batch[i][j]) > 1e-3 {
				t.Fatalf("batch/single mismatch at %d/%d: %v vs %v", i, j, batch[i][j], single[j])
			}
		}
	}
	if _, err := res.Surrogate.PredictBatchHeat(ps, ts[:1]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := res.Surrogate.PredictBatch([][]float64{{1, 2}}, []float64{0.1}); err == nil {
		t.Fatal("expected parameter-dimension error")
	}
}

func TestSolveGroundTruth(t *testing.T) {
	p := HeatParams{TIC: 300, TX1: 300, TY1: 300, TX2: 300, TY2: 300}
	fields, err := Solve(p, 8, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 5 || len(fields[0]) != 64 {
		t.Fatalf("shape %d × %d", len(fields), len(fields[0]))
	}
	// Uniform temperatures stay uniform.
	for _, f := range fields {
		for _, v := range f {
			if math.Abs(v-300) > 1e-8 {
				t.Fatalf("steady state drifted: %v", v)
			}
		}
	}
	if _, err := Solve(p, 0, 5, 0.01); err == nil {
		t.Fatal("expected error for invalid grid")
	}
}

// parkingProblem is the heat problem, except that every simulator parks on
// gate once it has completed parkAt steps (announcing it on parked), so a
// test can act on a run that is provably still in flight however fast the
// pipeline is. The first free simulators run unparked: RunOnline solves the
// validation set before it launches a client. With openAfter > 0 the gate
// opens by itself once that many samples have been normalized, which after
// the validation set only the trainer does, one call per sample of a batch.
type parkingProblem struct {
	Problem
	parkAt int
	parked chan struct{}
	gate   chan struct{}

	free      atomic.Int64
	openAfter int64
	trained   atomic.Int64
}

func (p *parkingProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	sim, err := p.Problem.NewSimulator(cfg, params)
	if err != nil || p.free.Add(-1) >= 0 {
		return sim, err
	}
	return &parkingSim{Simulator: sim, p: p}, nil
}

func (p *parkingProblem) Normalizer(cfg Config) Normalizer {
	return countingNormalizer{Normalizer: p.Problem.Normalizer(cfg), p: p}
}

type parkingSim struct {
	Simulator
	p *parkingProblem
}

func (s *parkingSim) StepOnce() error {
	if s.StepIndex() == s.p.parkAt {
		select {
		case s.p.parked <- struct{}{}:
		default:
		}
		<-s.p.gate
	}
	return s.Simulator.StepOnce()
}

type countingNormalizer struct {
	Normalizer
	p *parkingProblem
}

func (n countingNormalizer) NormalizeOutput(raw, dst []float32) {
	n.Normalizer.NormalizeOutput(raw, dst)
	if n.p.trained.Add(1) == n.p.openAfter {
		close(n.p.gate)
	}
}

// runOnline is RunOnline under the suite's pipeline deadline: a pipeline
// that never terminates fails here with every goroutine's stack.
func runOnline(t testing.TB, cfg Config) (*RunResult, error) {
	t.Helper()
	return testwait.Run2(t, "RunOnline to return", func() (*RunResult, error) {
		return RunOnline(context.Background(), cfg)
	})
}

func TestRunOnlineContextCancel(t *testing.T) {
	cfg := tinyConfig()
	cfg.ValidationSims = 0 // the validation set would park too
	prob := &parkingProblem{Problem: Heat(), parkAt: 3, parked: make(chan struct{}, 1), gate: make(chan struct{})}
	cfg.Problem = prob
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := RunOnline(ctx, cfg)
		errc <- err
	}()

	testwait.Recv(t, prob.parked, "a client to reach its parking step")
	cancel()
	close(prob.gate)
	if err := testwait.Recv(t, errc, "RunOnline to return after cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOnline returned %v, want the cancellation error", err)
	}
}
