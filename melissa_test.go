package melissa

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"melissa/internal/buffer"
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
		func(c *Config) { c.Dt = math.NaN() },
		func(c *Config) { c.Dt = math.Inf(1) },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Capacity = -5 },
		func(c *Config) { c.Threshold = -1 },
		func(c *Config) { c.Threshold = c.Capacity + 1 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig()
		mutate(&cfg)
		// validate itself must refuse it: a later failure (the solver's, say)
		// is not a refusal.
		if err := cfg.validate(); err == nil {
			t.Fatalf("case %d: validate accepted it", i)
		}
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
	field := res.Surrogate.Predict([]float64{300, 200, 400, 250, 350}, 0.04)
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
	p := []float64{150, 450, 300, 200, 380}
	a := res.Surrogate.Predict(p, 0.05)
	b := loaded.Predict(p, 0.05)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded surrogate predicts differently")
		}
	}
}

func TestSolveGroundTruth(t *testing.T) {
	p := []float64{300, 300, 300, 300, 300}
	fields, err := Simulate(Heat(), Config{GridN: 8, StepsPerSim: 5, Dt: 0.01}, p)
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
	if _, err := Simulate(Heat(), Config{GridN: 0, StepsPerSim: 5, Dt: 0.01}, p); err == nil {
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

// TestValidationSetConcurrentEqualsSequential: the validation members run
// concurrently, yet the set holds the samples a sequential loop over the
// members builds — same members, steps and float bits, in the same order —
// and a member that cannot be built fails the generation with its own error
// after every started member has returned; a cancelled context builds no
// member.
func TestValidationSetConcurrentEqualsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // members overlap on any host
	cfg := tinyConfig()
	prob := Heat()
	space, err := problemSpace(prob)
	if err != nil {
		t.Fatal(err)
	}
	for _, sims := range []int{1, 3, 7} {
		cfg.ValidationSims = sims
		var want []buffer.Sample
		for i, p := range validationParams(cfg, space) {
			err := streamSteps(cfg, prob, p, func(step int, input, output []float32) error {
				want = append(want, buffer.Sample{SimID: -1 - i, Step: step, Input: input, Output: output})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := testwait.Run2(t, "the validation members", func() ([]buffer.Sample, error) {
			return validationSamples(context.Background(), cfg, prob, space)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != sims*cfg.StepsPerSim {
			t.Fatalf("%d sims: %d samples, want %d", sims, len(got), len(want))
		}
		bits := func(v []float32) []uint32 {
			out := make([]uint32, len(v))
			for i, f := range v {
				out[i] = math.Float32bits(f)
			}
			return out
		}
		for k, w := range want {
			g := got[k]
			if g.SimID != w.SimID || g.Step != w.Step || !slices.Equal(bits(g.Input), bits(w.Input)) || !slices.Equal(bits(g.Output), bits(w.Output)) {
				t.Fatalf("%d sims: sample %d is sim %d step %d, want sim %d step %d (or its floats differ)", sims, k, g.SimID, g.Step, w.SimID, w.Step)
			}
		}
	}

	// Members long enough (≈ 3 ms) that one still running at return is seen,
	// and none steps before the failing one has been refused.
	cfg.ValidationSims, cfg.GridN, cfg.StepsPerSim = 7, 32, 100
	bad := &failingProblem{Problem: prob, fail: validationParams(cfg, space)[2], failed: make(chan struct{})}
	before := runtime.NumGoroutine()
	_, err = testwait.Run2(t, "the validation members", func() ([]buffer.Sample, error) {
		return validationSamples(context.Background(), cfg, bad, space)
	})
	if !errors.Is(err, errMemberFailed) {
		t.Fatalf("generation returned %v, want the failing member's error", err)
	}
	if n := bad.running.Load(); n != 0 {
		t.Fatalf("%d members still running after generation returned", n)
	}
	testwait.Until(t, "the member goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })

	// A cancelled context builds no member.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gate := &gatedProblem{Problem: prob, ctx: ctx, release: make(chan struct{})}
	if _, err := validationSamples(ctx, cfg, gate, space); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled generation returned %v, want context.Canceled", err)
	}
	if n := gate.built.Load(); n != 0 {
		t.Fatalf("cancelled generation built %d members", n)
	}
}

var errMemberFailed = errors.New("member failed")

// failingProblem refuses to build the member whose parameters are fail, and
// counts the other members from build to last step. They take their first
// step only once the refusal has happened, so the failing member must start
// while the earlier ones wait: it is the third, and the test runs four at a
// time.
type failingProblem struct {
	Problem
	fail    []float64
	failed  chan struct{}
	once    sync.Once
	running atomic.Int64
}

func (p *failingProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	if slices.Equal(params, p.fail) {
		p.once.Do(func() { close(p.failed) })
		return nil, errMemberFailed
	}
	sim, err := p.Problem.NewSimulator(cfg, params)
	if err != nil {
		return nil, err
	}
	p.running.Add(1)
	return &countedSim{Simulator: sim, p: p, steps: cfg.StepsPerSim}, nil
}

type countedSim struct {
	Simulator
	p     *failingProblem
	steps int
}

func (s *countedSim) StepOnce() error {
	<-s.p.failed
	err := s.Simulator.StepOnce()
	if s.StepIndex() == s.steps {
		s.p.running.Add(-1)
	}
	return err
}
