package melissa

import (
	"context"
	"fmt"
	"runtime"

	"melissa/internal/core"
	"melissa/internal/dataset"
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
// leveraging the parallelism of its clients"), drawing the parameters as
// RunOnline does. Generation is parallel across MaxConcurrentClients solver
// instances and works for any configured Problem. A cancelled ctx stops
// every member at its next step; the call returns once all have stopped.
// dir must hold no simulation file yet: the dataset is exactly the members
// this call writes.
func GenerateDataset(ctx context.Context, cfg Config, dir string) (*DatasetInfo, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stale, err := dataset.Files(dir)
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		return nil, fmt.Errorf("melissa: %s already holds %d simulation files — generate each dataset into an empty directory", dir, len(stale))
	}
	prob := cfg.problem()
	space, err := problemSpace(prob)
	if err != nil {
		return nil, err
	}
	params, err := drawParams(cfg, space, cfg.Simulations)
	if err != nil {
		return nil, err
	}

	concurrency := cfg.MaxConcurrentClients
	if concurrency < 1 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	err = eachMember(ctx, cfg.Simulations, concurrency, func(sim int) error {
		return writeSimulation(ctx, dir, sim, cfg, prob, params[sim])
	})
	if err != nil {
		return nil, err
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

func writeSimulation(ctx context.Context, dir string, simID int, cfg Config, prob Problem, params []float64) error {
	w, err := dataset.Create(dir, simID, cfg.StepsPerSim, len(params)+1, fieldDim(prob, cfg))
	if err != nil {
		return err
	}
	err = streamSteps(cfg, prob, params, func(_ int, input, output []float32) error {
		if err := w.WriteStep(input, output); err != nil {
			return err
		}
		return ctx.Err()
	})
	// Close releases the file whether or not the member completed.
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("melissa: generating sim %d: %w", simID, err)
	}
	return nil
}

// TrainOffline is the classical baseline the paper compares against (§4.6):
// multi-epoch training over a fixed on-disk dataset served by a
// multi-worker loader. The loader is the producer of a fed run
// (core.RunFed) of the trainer RunOnline trains through, dealing samples to
// the data-parallel ranks BatchSize at a time.
// Epochs stay exact — every sample is trained on once per epoch — but an
// epoch's tail batch is topped up from the next epoch's shuffle. Combined
// with GenerateDataset and Config.WarmStart, it supports the §5 production
// workflow — offline pre-training on a small dataset followed by online
// re-training at scale. On one host, Ranks>1 is slower than Ranks=1 with
// BatchSize·Ranks, which trains the same samples per step in one batch.
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
	tc, err := trainerConfig(ctx, cfg, prob, space, norm)
	if err != nil {
		return nil, err
	}
	loader := dataset.NewLoader(ds, cfg.BatchSize*cfg.Ranks, loaderWorkers, cfg.Seed^0x0ff1e)
	trainer, err := core.RunFed(ctx, tc, func(f *core.Feeder) error {
		for epoch := 0; epoch < epochs; epoch++ {
			if err := loader.Epoch(f.Deal); err != nil {
				return fmt.Errorf("melissa: dataset %s: %w", dir, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runResult(cfg, prob, norm, trainer.Network(), trainer.Metrics()), nil
}
