// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Timing experiments (Figure 2, the throughput columns of
// Tables 1-2) run at the paper's full scale on the discrete-event cluster
// simulator with the calibrated Jean-Zay performance model; training
// quality experiments (Figures 4-6, the MSE columns, the offline-data
// ablation) train on solver-generated data at a reduced grid size,
// preserving the ratios that drive the paper's conclusions (clients : GPUs
// : buffer capacity : dataset multiplicity).
//
// A Scale embeds the melissa.Config of its ensemble, and every quality run
// trains the trainer config melissa.ServerConfig builds from it — model,
// normalizer, learning-rate schedule and held-out validation set — as
// melissa-server does, with one in-process data-parallel rank per GPU
// (core.RunFed). An online run feeds each rank the batches the cluster
// simulator assigns it, step by step; the one-epoch offline baselines of
// Figures 4-5, Table 1 and the ablation deal the same in-memory ensemble to
// the ranks. Figure 6's multi-epoch offline baseline is the product's
// offline path: melissa.GenerateDataset, then melissa.TrainOffline.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/sampling"
	"melissa/internal/solver"
)

// Scale selects the size of the quality experiments. Its Config describes
// the ensemble every figure trains on: the problem (which must be set; the
// presets set the paper's heat equation), grid, steps, Dt, model, batch,
// buffer capacity and threshold, the §4.5 learning-rate schedule, the
// held-out validation members and the seed. A figure trains the trainer
// and buffer melissa.ServerConfig builds from it, as melissa-server does.
// The fields beside it size the figures.
type Scale struct {
	melissa.Config

	Name string

	SimsSmall int // the "250-simulation" ensemble analogue
	SimsLarge int // the "20,000-simulation" ensemble analogue (Fig 6)
	// SimsOffline sizes the fixed dataset of the Figure 6 / Table 2
	// offline baseline (0 = SimsSmall). The paper's offline run overfits
	// because its 514M-parameter model can memorize the 25,000-sample
	// dataset over 100 epochs; at reduced model capacity the equivalent
	// memorization regime needs a proportionally smaller dataset — the
	// offline-data-size ablation sweeps the crossover.
	SimsOffline int

	OfflineEpochs int // Fig 6 offline baseline (paper: 100)

	ValidateEverySamples int // validation cadence in samples (paper: 100 batches × 10)
}

// Every preset trains the paper's heat equation through a Reservoir on the
// §4.5 schedule: 1e-3, halved every HalveEvery samples down to 2.5e-4. The
// paper halves every 10,000 samples of its 25,000-sample ensemble; a
// preset halves at the same fraction of its own small ensemble
// (SimsSmall·StepsPerSim), so every preset sees the same number of decay
// steps. Config.Simulations is left to each figure: the size of the
// ensemble it trains on.

// Tiny is the unit-test scale: everything completes in well under a second.
func Tiny() Scale {
	return Scale{
		Config: melissa.Config{
			Problem: melissa.Heat(),
			GridN:   8, StepsPerSim: 10, Dt: 0.01,
			Ranks:  1,
			Hidden: []int{16}, BatchSize: 5,
			Buffer: melissa.Reservoir, Capacity: 50, Threshold: 10,
			LearningRate: 1e-3, HalveEvery: 40, MinLR: 2.5e-4,
			ValidationSims: 3,
			Seed:           2023,
		},
		Name:      "tiny",
		SimsSmall: 10, SimsLarge: 30,
		OfflineEpochs:        3,
		ValidateEverySamples: 100,
	}
}

// Default is the bench scale: quality experiments take seconds to a couple
// of minutes on a laptop core while keeping the paper's ratios
// (capacity ≈ ¼ of the small ensemble, threshold ≈ capacity/6, large
// ensemble = 10× small).
func Default() Scale {
	return Scale{
		Config: melissa.Config{
			Problem: melissa.Heat(),
			GridN:   32, StepsPerSim: 50, Dt: 0.01,
			Ranks:  1,
			Hidden: []int{128, 128}, BatchSize: 10,
			Buffer: melissa.Reservoir, Capacity: 1250, Threshold: 200,
			LearningRate: 1e-3, HalveEvery: 2000, MinLR: 2.5e-4,
			ValidationSims: 10,
			Seed:           2023,
		},
		Name:      "default",
		SimsSmall: 100, SimsLarge: 1000, SimsOffline: 15,
		OfflineEpochs:        133, // ≈100k offline samples, matching the online budget
		ValidateEverySamples: 1000,
	}
}

// Large pushes closer to the paper's ensemble counts; minutes per figure.
func Large() Scale {
	return Scale{
		Config: melissa.Config{
			Problem: melissa.Heat(),
			GridN:   32, StepsPerSim: 100, Dt: 0.01,
			Ranks:  1,
			Hidden: []int{256, 256}, BatchSize: 10,
			Buffer: melissa.Reservoir, Capacity: 6000, Threshold: 1000,
			LearningRate: 1e-3, HalveEvery: 10000, MinLR: 2.5e-4,
			ValidationSims: 10,
			Seed:           2023,
		},
		Name:      "large",
		SimsSmall: 250, SimsLarge: 2000, SimsOffline: 30,
		OfflineEpochs:        70,
		ValidateEverySamples: 1000,
	}
}

// ScaleByName resolves a preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "default", "":
		return Default(), nil
	case "large":
		return Large(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (tiny|default|large)", name)
	}
}

// OfflineSims returns the Figure 6 offline dataset size.
func (s Scale) OfflineSims() int {
	if s.SimsOffline > 0 {
		return s.SimsOffline
	}
	return s.SimsSmall
}

// EnsembleData holds solver-generated trajectories for quality experiments.
type EnsembleData struct {
	Scale Scale
	// Params[sim] is the physical parameter vector, in the problem's
	// canonical ParamNames order.
	Params [][]float64
	// fields[sim][step-1] is the float32 field of (sim, step).
	fields [][][]float32
}

// GenerateEnsemble runs the scale's problem solver for sims parameter
// draws from the seeded Monte Carlo design over the problem's parameter
// box (seedOffset decorrelates training vs validation ensembles). The draws
// are made in member order; the members then run GOMAXPROCS at a time.
func GenerateEnsemble(scale Scale, sims int, seedOffset uint64) (*EnsembleData, error) {
	prob := scale.Problem
	min, max := prob.ParamBounds()
	space, err := sampling.NewSpace(min, max)
	if err != nil {
		return nil, fmt.Errorf("experiments: problem %q bounds: %w", prob.Name(), err)
	}
	design := sampling.NewMonteCarlo(space.Dim(), scale.Seed+seedOffset)
	e := &EnsembleData{
		Scale:  scale,
		Params: make([][]float64, sims),
		fields: make([][][]float32, sims),
	}
	for i := range e.Params {
		e.Params[i] = space.Scale(design.Next())
	}
	errs := make([]error, sims)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range e.Params {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			errs[i] = e.solve(prob, i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return e, nil
}

// solve runs member i and stores its fields.
func (e *EnsembleData) solve(prob melissa.Problem, i int) error {
	sim, err := prob.NewSimulator(e.Scale.Config, e.Params[i])
	if err != nil {
		return err
	}
	e.fields[i] = make([][]float32, e.Scale.StepsPerSim)
	err = solver.Run(sim, e.Scale.StepsPerSim, func(step int, field []float64) {
		f := make([]float32, len(field))
		for j, v := range field {
			f[j] = float32(v)
		}
		e.fields[i][step-1] = f
	})
	if err != nil {
		return fmt.Errorf("experiments: %s sim %d: %w", prob.Name(), i, err)
	}
	return nil
}

// Sims returns the ensemble size.
func (e *EnsembleData) Sims() int { return len(e.fields) }

// Sample assembles the raw training sample for (simID, 1-based step): the
// parameter vector plus the physical time, then the flattened field — the
// same wire layout the streaming clients produce.
func (e *EnsembleData) Sample(simID, step int) buffer.Sample {
	p := e.Params[simID]
	input := make([]float32, len(p)+1)
	for i, v := range p {
		input[i] = float32(v)
	}
	input[len(p)] = float32(float64(step) * e.Scale.Dt)
	return buffer.Sample{SimID: simID, Step: step, Input: input, Output: e.fields[simID][step-1]}
}

// AllSamples flattens the ensemble in (sim, step) order.
func (e *EnsembleData) AllSamples() []buffer.Sample {
	out := make([]buffer.Sample, 0, e.Sims()*e.Scale.StepsPerSim)
	for sim := 0; sim < e.Sims(); sim++ {
		for step := 1; step <= e.Scale.StepsPerSim; step++ {
			out = append(out, e.Sample(sim, step))
		}
	}
	return out
}
