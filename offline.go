package melissa

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/dataset"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/sampling"
	"melissa/internal/tensor"
)

// DatasetInfo describes a generated offline dataset.
type DatasetInfo struct {
	Dir         string
	Simulations int
	Samples     int
	Bytes       int64
}

// GenerateDataset runs the ensemble like RunOnline but writes every time
// step to disk (one binary file per simulation) instead of streaming it to
// a server — the paper's offline data-generation mode (§4.6: "the
// framework reveals itself also useful to quickly generate datasets by
// leveraging the parallelism of its clients"). Generation is parallel
// across MaxConcurrentClients solver instances and works for any
// configured Problem.
func GenerateDataset(ctx context.Context, cfg Config, dir string) (*DatasetInfo, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prob := cfg.problem()
	space, err := problemSpace(prob)
	if err != nil {
		return nil, err
	}
	design := sampling.NewMonteCarlo(space.Dim(), cfg.Seed)
	params := make([][]float64, cfg.Simulations)
	for i := range params {
		params[i] = space.Scale(design.Next())
	}

	concurrency := cfg.MaxConcurrentClients
	if concurrency < 1 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, concurrency)
	errs := make([]error, cfg.Simulations)
	var wg sync.WaitGroup
	for sim := 0; sim < cfg.Simulations; sim++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(sim int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[sim] = writeSimulation(dir, sim, cfg, prob, params[sim])
		}(sim)
	}
	wg.Wait()
	for sim, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("melissa: generating sim %d: %w", sim, err)
		}
	}

	ds, err := dataset.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	return &DatasetInfo{
		Dir:         dir,
		Simulations: ds.Sims(),
		Samples:     ds.Len(),
		Bytes:       ds.Bytes(),
	}, nil
}

func writeSimulation(dir string, simID int, cfg Config, prob Problem, params []float64) error {
	w, err := dataset.Create(dir, simID, cfg.StepsPerSim, len(params)+1, fieldDim(prob, cfg))
	if err != nil {
		return err
	}
	err = streamSteps(cfg, prob, params, func(_ int, input, output []float32) error {
		return w.WriteStep(input, output)
	})
	if err != nil {
		return err
	}
	return w.Close()
}

// TrainOffline is the classical baseline the paper compares against (§4.6):
// multi-epoch training over a fixed on-disk dataset served by a
// multi-worker loader. Combined with GenerateDataset and Config.WarmStart,
// it supports the §5 production workflow — offline pre-training on a small
// dataset followed by online re-training at scale.
func TrainOffline(ctx context.Context, cfg Config, dir string, epochs, loaderWorkers int) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if epochs < 1 {
		return nil, fmt.Errorf("melissa: epochs=%d must be ≥ 1", epochs)
	}
	ds, err := dataset.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer ds.Close()

	prob := cfg.problem()
	space, err := problemSpace(prob)
	if err != nil {
		return nil, err
	}
	norm := prob.Normalizer(cfg)
	if inDim, fDim := ds.Dims(); inDim != norm.InputDim() || fDim != norm.OutputDim() {
		return nil, fmt.Errorf("melissa: dataset %s has %d-dim inputs and %d-value fields, problem %q expects %d/%d — generated for a different problem or geometry?",
			dir, inDim, fDim, prob.Name(), norm.InputDim(), norm.OutputDim())
	}
	cnorm := coreNormalizer(norm)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	if cfg.WarmStart != nil {
		var buf bytes.Buffer
		if err := cfg.WarmStart.net.SaveWeights(&buf); err != nil {
			return nil, err
		}
		if err := net.LoadWeights(&buf); err != nil {
			return nil, fmt.Errorf("melissa: warm start: %w", err)
		}
	}

	var valSet *core.ValidationSet
	if cfg.ValidationSims > 0 {
		valSet, err = generateValidation(cfg, prob, space, norm)
		if err != nil {
			return nil, err
		}
	}

	var schedule opt.Schedule = opt.Constant(cfg.LearningRate)
	if cfg.HalveEvery > 0 {
		schedule = opt.Halving{Initial: cfg.LearningRate, EverySamples: cfg.HalveEvery, Min: cfg.MinLR}
	}
	adam := opt.NewAdam(cfg.LearningRate)
	// The loop below is the process's one trainer: its kernels may use
	// every core. The team is closed before the surrogate is handed out.
	team := tensor.NewTeam(runtime.GOMAXPROCS(0))
	defer team.Close()
	net.SetTeam(team)
	adam.SetTeam(team)
	lossFn := nn.NewMSELoss()
	metrics := core.NewMetrics(false)
	metrics.Begin()

	loader := dataset.NewLoader(ds, cfg.BatchSize*cfg.Ranks, loaderWorkers, cfg.Seed^0x0ff1e)
	// Reusable batch storage: full batches use the preallocated matrices
	// directly, the final partial batch of each epoch a prefix view.
	batchIn := tensor.New(cfg.BatchSize*cfg.Ranks, norm.InputDim())
	batchOut := tensor.New(cfg.BatchSize*cfg.Ranks, norm.OutputDim())
	var inView, outView tensor.Matrix
	for epoch := 0; epoch < epochs; epoch++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		err := loader.Epoch(func(batch []buffer.Sample) error {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			batchIn.ViewRows(&inView, 0, len(batch))
			batchOut.ViewRows(&outView, 0, len(batch))
			bi, bo := &inView, &outView
			core.BuildBatch(cnorm, batch, bi, bo)
			net.ZeroGrad()
			pred := net.Forward(bi)
			loss := lossFn.Forward(pred, bo)
			net.Backward(lossFn.Backward(pred, bo))
			b, s := metrics.RecordStep(len(batch))
			metrics.RecordTrainLoss(b, s, loss)
			adam.SetLR(schedule.LR(s))
			adam.StepFlat(net.FlatParams(), net.FlatGrads())
			if valSet != nil && cfg.ValidateEvery > 0 && b%cfg.ValidateEvery == 0 {
				metrics.RecordValidation(b, s, core.Validate(net, valSet, cfg.BatchSize*4))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	metrics.Finish()

	out := &RunResult{
		Surrogate:     newSurrogate(net, norm, surrogateMeta(cfg, prob)),
		Batches:       metrics.Batches(),
		Samples:       metrics.Samples(),
		UniqueSamples: ds.Len(),
		Throughput:    metrics.Throughput(),
		WallTime:      metrics.WallTime(),
	}
	if valSet != nil {
		v := core.Validate(net, valSet, cfg.BatchSize*4)
		metrics.RecordValidation(metrics.Batches(), metrics.Samples(), v)
		out.ValidationMSE = v
		out.ValidationMSEKelvin = norm.RawMSE(v)
	}
	for _, p := range metrics.Validation() {
		out.ValidationCurve = append(out.ValidationCurve, Point{Batch: p.Batch, Samples: p.Samples, MSE: p.Value})
	}
	for _, p := range metrics.TrainLoss() {
		out.TrainCurve = append(out.TrainCurve, Point{Batch: p.Batch, Samples: p.Samples, MSE: p.Value})
	}
	return out, nil
}
