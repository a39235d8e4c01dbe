// Package melissa is a Go implementation of the Melissa framework from
// "High Throughput Training of Deep Surrogates from Large Ensemble Runs"
// (SC '23): online training of deep surrogate models from large ensembles
// of simulation runs, streamed directly from the solvers to a data-parallel
// training server through training buffers (FIFO, FIRO, and the paper's
// Reservoir) — no intermediate files, fault-tolerant, and reproducible.
//
// The framework is problem-agnostic: a Problem bundles a parameter space,
// a Simulator factory, a Normalizer, and the output field geometry, and
// the whole pipeline — launcher, streaming clients, training server,
// validation, offline dataset generation — runs against that interface.
// Two problems ship registered out of the box: the paper's 2D heat
// equation ("heat", the default) and 2D Gray–Scott reaction–diffusion
// ("gray-scott"). Additional scenarios plug in via RegisterProblem without
// touching the pipeline.
//
// The high-level workflow:
//
//	cfg := melissa.DefaultConfig()
//	cfg.Problem = melissa.GrayScott() // or leave nil for the heat equation
//	cfg.Simulations = 100
//	res, err := melissa.RunOnline(context.Background(), cfg)
//	field := res.Surrogate.Predict([]float64{0.03, 0.06, 0.16, 0.08}, 0.5)
//
// Surrogate checkpoints are self-describing: Save records the problem name
// and architecture, so LoadSurrogate(r) reconstructs a usable model with no
// further arguments. Every prediction runs on a Replica
// (Surrogate.NewReplica): Predict and PredictBatch draw one from the
// surrogate's pool. Trained surrogates are served at scale by
// cmd/melissa-serve: adaptive micro-batching over the wire protocol, one
// replica per batch worker sharing one weight slab, an LRU prediction cache
// flushed on every reload, and hot checkpoint reload fed by melissa-server's
// -surrogate-out/-publish-every atomic publishes (PublishSurrogate) — see
// docs/serving.md for topology and SLO tuning. Lower-level building blocks
// (buffers, the cluster simulator, the experiment harness reproducing the
// paper's tables and figures) live in the internal packages; the cmd/
// binaries and examples/ show them in use.
package melissa

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/launcher"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/solver"
	"melissa/internal/telemetry"
)

// BufferPolicy selects the training buffer algorithm (§3.2.3 of the paper).
type BufferPolicy string

// The three policies evaluated in the paper. Reservoir is the paper's
// contribution and the recommended default.
const (
	FIFO      BufferPolicy = "FIFO"
	FIRO      BufferPolicy = "FIRO"
	Reservoir BufferPolicy = "Reservoir"
)

// HeatParams are the inputs of one heat-equation simulation: the initial
// temperature and the four boundary temperatures (Kelvin). They are the
// typed convenience over the generic parameter vectors the Problem API
// works with.
type HeatParams struct {
	TIC, TX1, TY1, TX2, TY2 float64
}

// Vector returns the parameters in the canonical order used across the
// framework: (T_IC, T_x1, T_y1, T_x2, T_y2), matching §4.1.
func (p HeatParams) Vector() []float64 {
	return []float64{p.TIC, p.TX1, p.TY1, p.TX2, p.TY2}
}

// Config assembles an online ensemble-training run.
type Config struct {
	// Problem selects the simulation scenario; nil means the heat
	// equation, the paper's demonstrator. See RegisterProblem for adding
	// scenarios.
	Problem Problem

	// Ensemble
	Simulations int     // ensemble members to run
	GridN       int     // solver grid side; output size follows Problem.FieldShape
	StepsPerSim int     // time steps per simulation
	Dt          float64 // seconds per step

	// Concurrency
	MaxConcurrentClients int // simulation clients running at once
	Ranks                int // data-parallel training ranks ("GPUs"), online and offline

	// Surrogate
	Hidden    []int // MLP hidden layer widths (paper: 256, 256)
	BatchSize int   // per rank (paper: 10)

	// Buffer (paper defaults: Reservoir, capacity 6000, threshold 1000 —
	// scale capacity to roughly a quarter of the ensemble's sample count).
	// Besides the three policies, Buffer takes "UniformEvict", the
	// Reservoir's eviction ablation.
	Buffer    BufferPolicy
	Capacity  int
	Threshold int

	// Learning rate schedule: initial 1e-3, halved every HalveEvery
	// samples down to MinLR (§4.5). HalveEvery 0 keeps it constant.
	LearningRate float64
	HalveEvery   int
	MinLR        float64

	// Validation
	ValidationSims int // held-out simulations (paper: 10); 0 disables
	ValidateEvery  int // batches between validations (paper: 100)

	// Fault tolerance
	MaxClientRetries  int
	MaxServerRestarts int
	WatchdogTimeout   time.Duration
	// CheckpointDir is the server's checkpoint directory; "" disables
	// checkpoints. A directory that already holds a checkpoint is resumed
	// from it, by the first server as much as by a replacement after a
	// crash: give each fresh run an empty (or new) directory.
	CheckpointDir string

	// WarmStart, when set, initializes training from an existing
	// surrogate's weights instead of a random init — the §5 production
	// workflow: offline pre-training on a reduced dataset followed by
	// online re-training at scale. The architecture must match.
	WarmStart *Surrogate

	// Design selects the experimental design drawing the simulation
	// parameters: "monte-carlo" (default), "latin-hypercube" or "halton"
	// (§3.1).
	Design string
	// Sampler, when set, overrides Design with a custom draw function
	// returning points in the unit hypercube [0,1)^d, d the problem's
	// parameter count. This is the hook for adaptive experimental designs
	// (§5 future work; see examples/adaptive-sampling).
	Sampler func() []float64

	// Seed drives every stochastic component (§3.1).
	Seed uint64
}

// problem returns the configured problem, defaulting to the heat equation.
func (c Config) problem() Problem {
	if c.Problem != nil {
		return c.Problem
	}
	return Heat()
}

// DefaultConfig returns a laptop-scale configuration with the paper's
// ratios.
func DefaultConfig() Config {
	return Config{
		Simulations:          20,
		GridN:                16,
		StepsPerSim:          20,
		Dt:                   0.01,
		MaxConcurrentClients: 4,
		Ranks:                1,
		Hidden:               []int{64, 64},
		BatchSize:            10,
		Buffer:               Reservoir,
		Capacity:             200,
		Threshold:            30,
		LearningRate:         1e-3,
		HalveEvery:           10000,
		MinLR:                2.5e-4,
		ValidationSims:       2,
		ValidateEvery:        50,
		MaxClientRetries:     2,
		MaxServerRestarts:    1,
		Seed:                 2023,
	}
}

// validDt reports whether dt can scale the surrogate's time input: finite
// and > 0. NaN fails the comparison.
func validDt(dt float64) bool { return dt > 0 && !math.IsInf(dt, 1) }

func (c Config) validate() error {
	if c.Simulations < 1 {
		return fmt.Errorf("melissa: Simulations=%d must be ≥ 1", c.Simulations)
	}
	if c.GridN < 1 || c.StepsPerSim < 1 {
		return fmt.Errorf("melissa: grid %d × steps %d invalid", c.GridN, c.StepsPerSim)
	}
	if !validDt(c.Dt) {
		return fmt.Errorf("melissa: Dt=%g must be finite and > 0 — the surrogate's time input degenerates otherwise", c.Dt)
	}
	if c.Ranks < 1 || c.BatchSize < 1 {
		return fmt.Errorf("melissa: ranks %d batch %d invalid", c.Ranks, c.BatchSize)
	}
	if !slices.Contains(buffer.Kinds(), buffer.Kind(c.Buffer)) {
		return fmt.Errorf("melissa: unknown buffer policy %q", c.Buffer)
	}
	if c.Capacity < 1 {
		return fmt.Errorf("melissa: buffer Capacity=%d must be ≥ 1", c.Capacity)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("melissa: buffer Threshold=%d must be ≥ 0", c.Threshold)
	}
	if c.Threshold > c.Capacity {
		return fmt.Errorf("melissa: buffer Threshold=%d exceeds Capacity=%d — extraction could never start", c.Threshold, c.Capacity)
	}
	return nil
}

// Point is one point of a loss curve.
type Point struct {
	Batch   int
	Samples int
	MSE     float64
}

// RunResult reports a completed online training run.
type RunResult struct {
	// Surrogate is the trained model, ready for prediction.
	Surrogate *Surrogate
	// Batches and Samples count the synchronized training steps and the
	// samples consumed (including Reservoir repetitions).
	Batches int
	Samples int
	// UniqueSamples counts distinct time steps trained on.
	UniqueSamples int
	// ValidationMSE is the final validation loss (normalized units);
	// ValidationMSEKelvin the same in the problem's physical units²
	// (Kelvin² for the heat equation, hence the name).
	ValidationMSE       float64
	ValidationMSEKelvin float64
	// ValidationCurve and TrainCurve are the recorded histories.
	ValidationCurve []Point
	TrainCurve      []Point
	// Throughput is samples consumed per wall-clock second.
	Throughput float64
	// WallTime is the total training duration.
	WallTime time.Duration
	// ClientRestarts and ServerRestarts count fault recoveries.
	ClientRestarts int
	ServerRestarts int
}

// RunOnline executes the full online workflow for the configured problem:
// launcher, training server, and ensemble clients streaming solver data,
// with fault tolerance, exactly as described in §3 of the paper — scaled to
// the local machine (clients and server ranks are processes-in-goroutines
// connected over loopback TCP).
func RunOnline(ctx context.Context, cfg Config) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prob := cfg.problem()
	space, err := problemSpace(prob)
	if err != nil {
		return nil, err
	}
	norm := prob.Normalizer(cfg)
	// Every member is drawn before the validation set costs solver time.
	params, err := drawParams(cfg, space, cfg.Simulations)
	if err != nil {
		return nil, err
	}
	scfg, err := serverConfig(ctx, cfg, prob, space, norm)
	if err != nil {
		return nil, err
	}

	l, err := launcher.New(launcher.Config{
		Server:               scfg,
		NewSim:               func(params []float64) (solver.Simulator, error) { return prob.NewSimulator(cfg, params) },
		Steps:                cfg.StepsPerSim,
		Dt:                   cfg.Dt,
		Params:               params,
		MaxConcurrentClients: cfg.MaxConcurrentClients,
		MaxClientRetries:     cfg.MaxClientRetries,
		MaxServerRestarts:    cfg.MaxServerRestarts,
	})
	if err != nil {
		return nil, err
	}
	srv, err := l.Run(ctx)
	if err != nil {
		return nil, err
	}
	return runResult(cfg, prob, norm, srv.Trainer().Network(), srv.Metrics()), nil
}

// ServerConfig returns the training server cfg describes, the one RunOnline
// runs: buffer, trainer (model, learning-rate schedule, warm start and the
// held-out validation set, whose members it solves), watchdog and
// checkpoint directory. It validates cfg first. A standalone server adds
// only its deployment fields — elastic group, expected clients, batch
// limit, checkpoint cadence, hooks — so it trains what RunOnline trains.
func ServerConfig(ctx context.Context, cfg Config) (server.Config, error) {
	if err := cfg.validate(); err != nil {
		return server.Config{}, err
	}
	prob := cfg.problem()
	space, err := problemSpace(prob)
	if err != nil {
		return server.Config{}, err
	}
	return serverConfig(ctx, cfg, prob, space, prob.Normalizer(cfg))
}

// serverConfig is ServerConfig for a validated cfg and its problem's
// space and normalizer.
func serverConfig(ctx context.Context, cfg Config, prob Problem, space sampling.Space, norm Normalizer) (server.Config, error) {
	tc, err := trainerConfig(ctx, cfg, prob, space, norm)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Ranks: cfg.Ranks,
		Buffer: buffer.Config{
			Kind:      buffer.Kind(cfg.Buffer),
			Capacity:  cfg.Capacity,
			Threshold: cfg.Threshold,
			Seed:      cfg.Seed,
		},
		Trainer:         tc,
		WatchdogTimeout: cfg.WatchdogTimeout,
		CheckpointDir:   cfg.CheckpointDir,
	}, nil
}

// trainerConfig builds the trainer both entry points train through: the
// seeded model, its normalizer and learning-rate schedule, the warm-start
// weights and the held-out validation set.
func trainerConfig(ctx context.Context, cfg Config, prob Problem, space sampling.Space, norm Normalizer) (core.TrainerConfig, error) {
	tc := core.TrainerConfig{
		Ranks:     cfg.Ranks,
		BatchSize: cfg.BatchSize,
		Model: core.ModelSpec{
			InputDim:  norm.InputDim(),
			Hidden:    cfg.Hidden,
			OutputDim: norm.OutputDim(),
			Seed:      cfg.Seed,
		},
		Normalizer:       core.AdaptNormalizer(norm),
		LearningRate:     cfg.LearningRate,
		Schedule:         opt.Constant(cfg.LearningRate),
		ValidateEvery:    cfg.ValidateEvery,
		TrackOccurrences: true,
	}
	if cfg.HalveEvery > 0 {
		tc.Schedule = opt.Halving{Initial: cfg.LearningRate, EverySamples: cfg.HalveEvery, Min: cfg.MinLR}
	}
	if cfg.WarmStart != nil {
		var buf bytes.Buffer
		buf.Grow(cfg.WarmStart.net.WeightsSize())
		if err := cfg.WarmStart.net.SaveWeights(&buf); err != nil {
			return core.TrainerConfig{}, err
		}
		tc.InitialWeights = buf.Bytes()
	}
	if cfg.ValidationSims > 0 {
		vs, err := generateValidation(ctx, cfg, prob, space, norm)
		if err != nil {
			return core.TrainerConfig{}, err
		}
		tc.Validation = vs
	}
	return tc, nil
}

// runResult reports a finished run from its network, its metrics and one
// snapshot of its telemetry.
func runResult(cfg Config, prob Problem, norm Normalizer, net *nn.Network, m *core.Metrics) *RunResult {
	snap := m.Telemetry().Snapshot()
	out := &RunResult{
		Surrogate:      newSurrogate(net, norm, surrogateMeta(cfg, prob)),
		Batches:        snap.Counters[telemetry.Batches],
		Samples:        snap.Counters[telemetry.Samples],
		UniqueSamples:  len(m.Occurrences()),
		Throughput:     snap.Throughput(),
		WallTime:       snap.Wall,
		ClientRestarts: snap.Counters[telemetry.ClientRestarts],
		ServerRestarts: snap.Counters[telemetry.ServerRestarts],
	}
	for _, p := range m.Validation() { // the last point is the final MSE
		out.ValidationCurve = append(out.ValidationCurve, Point{Batch: p.Batch, Samples: p.Samples, MSE: p.Value})
		out.ValidationMSE, out.ValidationMSEKelvin = p.Value, norm.RawMSE(p.Value)
	}
	for _, p := range m.TrainLoss() {
		out.TrainCurve = append(out.TrainCurve, Point{Batch: p.Batch, Samples: p.Samples, MSE: p.Value})
	}
	return out
}

// generateValidation produces the held-out set with a decorrelated design
// stream.
func generateValidation(ctx context.Context, cfg Config, prob Problem, space sampling.Space, norm Normalizer) (*core.ValidationSet, error) {
	samples, err := validationSamples(ctx, cfg, prob, space)
	if err != nil {
		return nil, err
	}
	return core.NewValidationSet(core.AdaptNormalizer(norm), samples), nil
}

// validationSamples runs the validation members concurrently, at most
// GOMAXPROCS at a time (see eachMember). Their design points are drawn in
// member order before any member starts and their samples are concatenated
// in member order, so the set is the one a sequential loop builds.
func validationSamples(ctx context.Context, cfg Config, prob Problem, space sampling.Space) ([]buffer.Sample, error) {
	params := validationParams(cfg, space)
	members := make([][]buffer.Sample, len(params))
	err := eachMember(ctx, len(params), runtime.GOMAXPROCS(0), func(i int) error {
		return streamSteps(cfg, prob, params[i], func(step int, input, output []float32) error {
			members[i] = append(members[i], buffer.Sample{SimID: -1 - i, Step: step, Input: input, Output: output})
			return ctx.Err()
		})
	})
	if err != nil {
		return nil, err
	}
	var samples []buffer.Sample
	for _, m := range members {
		samples = append(samples, m...)
	}
	return samples, nil
}

// eachMember runs fn for members 0 … n-1, at most width at a time. It
// starts no member once ctx is done and returns only after every started
// member has returned: with ctx.Err() if ctx ended the run early, else with
// the error of the first failed member in member order — the one a
// sequential loop would have stopped at.
func eachMember(ctx context.Context, n, width int, fn func(i int) error) error {
	errs := make([]error, n)
	slots := make(chan struct{}, width)
	var wg sync.WaitGroup
	started := 0
	for ; started < n; started++ {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-slots; wg.Done() }()
			errs[i] = fn(i)
		}(started)
	}
	wg.Wait()
	if started < n {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// validationParams draws the validation members' design points in member
// order, from a stream decorrelated from the ensemble's.
func validationParams(cfg Config, space sampling.Space) [][]float64 {
	design := sampling.NewMonteCarlo(space.Dim(), cfg.Seed^0x5eed0ff5)
	params := make([][]float64, cfg.ValidationSims)
	for i := range params {
		params[i] = space.Scale(design.Next())
	}
	return params
}

// Solve runs the reference heat-equation solver directly, returning the
// temperature field after each step — the typed convenience over
// Simulate(Heat(), ...).
func Solve(p HeatParams, gridN, steps int, dt float64) ([][]float64, error) {
	return Simulate(Heat(), Config{GridN: gridN, StepsPerSim: steps, Dt: dt}, p.Vector())
}
