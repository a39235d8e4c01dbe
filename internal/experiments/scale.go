// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Timing experiments (Figure 2, the throughput columns of
// Tables 1-2) run at the paper's full scale on the discrete-event cluster
// simulator with the calibrated Jean-Zay performance model; training
// quality experiments (Figures 4-6, the MSE columns) train on
// solver-generated data at a reduced grid size, preserving the ratios that
// drive the paper's conclusions (clients : GPUs : buffer capacity : dataset
// multiplicity). They train core.Trainer, the trainer the server runs, with
// one in-process data-parallel rank per GPU (core.RunFed): an online run
// feeds each rank the batches the cluster simulator assigns it, step by
// step, and an offline baseline deals its shuffled dataset to the ranks.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/sampling"
	"melissa/internal/solver"
)

// Scale selects the size of the quality experiments.
type Scale struct {
	Name string

	// Problem selects the simulation scenario the quality experiments
	// train on; nil means the paper's heat equation. All presets are
	// problem-agnostic: the ensemble generator, the model and the
	// normalization all route through the Problem API.
	Problem melissa.Problem

	GridN       int // solver grid side (paper: 1000)
	StepsPerSim int // time steps per simulation (paper: 100)
	Dt          float64

	SimsSmall int // the "250-simulation" ensemble analogue
	SimsLarge int // the "20,000-simulation" ensemble analogue (Fig 6)
	// SimsOffline sizes the fixed dataset of the Figure 6 / Table 2
	// offline baseline (0 = SimsSmall). The paper's offline run overfits
	// because its 514M-parameter model can memorize the 25,000-sample
	// dataset over 100 epochs; at reduced model capacity the equivalent
	// memorization regime needs a proportionally smaller dataset — the
	// offline-data-size ablation sweeps the crossover.
	SimsOffline int
	ValSims     int // held-out validation simulations (paper: 10)

	Hidden    []int // MLP hidden widths (paper: 256, 256)
	BatchSize int   // per GPU (paper: 10)

	BufferCapacity  int // paper: 6,000 ≈ a quarter of the small ensemble
	BufferThreshold int // paper: 1,000

	OfflineEpochs int // Fig 6 offline baseline (paper: 100)

	ValidateEverySamples int // validation cadence in samples (paper: 100 batches × 10)

	Seed uint64
}

// Tiny is the unit-test scale: everything completes in well under a second.
func Tiny() Scale {
	return Scale{
		Name:  "tiny",
		GridN: 8, StepsPerSim: 10, Dt: 0.01,
		SimsSmall: 10, SimsLarge: 30, ValSims: 3,
		Hidden: []int{16}, BatchSize: 5,
		BufferCapacity: 50, BufferThreshold: 10,
		OfflineEpochs:        3,
		ValidateEverySamples: 100,
		Seed:                 2023,
	}
}

// Default is the bench scale: quality experiments take seconds to a couple
// of minutes on a laptop core while keeping the paper's ratios
// (capacity ≈ ¼ of the small ensemble, threshold ≈ capacity/6, large
// ensemble = 10× small).
func Default() Scale {
	return Scale{
		Name:  "default",
		GridN: 32, StepsPerSim: 50, Dt: 0.01,
		SimsSmall: 100, SimsLarge: 1000, SimsOffline: 15, ValSims: 10,
		Hidden: []int{128, 128}, BatchSize: 10,
		BufferCapacity: 1250, BufferThreshold: 200,
		OfflineEpochs:        133, // ≈100k offline samples, matching the online budget
		ValidateEverySamples: 1000,
		Seed:                 2023,
	}
}

// Large pushes closer to the paper's ensemble counts; minutes per figure.
func Large() Scale {
	return Scale{
		Name:  "large",
		GridN: 32, StepsPerSim: 100, Dt: 0.01,
		SimsSmall: 250, SimsLarge: 2000, SimsOffline: 30, ValSims: 10,
		Hidden: []int{256, 256}, BatchSize: 10,
		BufferCapacity: 6000, BufferThreshold: 1000,
		OfflineEpochs:        70,
		ValidateEverySamples: 1000,
		Seed:                 2023,
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

// problem resolves the scenario, defaulting to the paper's heat equation.
func (s Scale) problem() melissa.Problem {
	if s.Problem != nil {
		return s.Problem
	}
	return melissa.Heat()
}

// Config returns the melissa configuration the scale's problem geometry is
// evaluated against.
func (s Scale) Config() melissa.Config {
	return melissa.Config{
		Problem:     s.problem(),
		GridN:       s.GridN,
		StepsPerSim: s.StepsPerSim,
		Dt:          s.Dt,
		Hidden:      s.Hidden,
	}
}

// FieldDim returns the flattened field length (channels × grid points).
func (s Scale) FieldDim() int {
	dim := 1
	for _, d := range s.problem().FieldShape(s.Config()) {
		dim *= d
	}
	return dim
}

// OfflineSims returns the Figure 6 offline dataset size.
func (s Scale) OfflineSims() int {
	if s.SimsOffline > 0 {
		return s.SimsOffline
	}
	return s.SimsSmall
}

// Normalizer returns the problem's normalizer for this scale.
func (s Scale) Normalizer() melissa.Normalizer {
	return s.problem().Normalizer(s.Config())
}

// CoreNormalizer adapts the problem normalizer to the trainer-side sample
// interface.
func (s Scale) CoreNormalizer() core.Normalizer {
	return core.AdaptNormalizer(s.Normalizer())
}

// ModelSpec returns the surrogate architecture for this scale.
func (s Scale) ModelSpec() core.ModelSpec {
	norm := s.Normalizer()
	return core.ModelSpec{
		InputDim:  norm.InputDim(),
		Hidden:    s.Hidden,
		OutputDim: norm.OutputDim(),
		Seed:      s.Seed,
	}
}

// BufferConfig returns the buffer configuration for a policy kind.
func (s Scale) BufferConfig(kind buffer.Kind) buffer.Config {
	return buffer.Config{Kind: kind, Capacity: s.BufferCapacity, Threshold: s.BufferThreshold, Seed: s.Seed}
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
	prob := scale.problem()
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
	sim, err := prob.NewSimulator(e.Scale.Config(), e.Params[i])
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

// ValidationSet generates the held-out set: ValSims fresh simulations
// "generated offline and never seen during training" (§4.4).
func ValidationSet(scale Scale) (*core.ValidationSet, error) {
	val, err := GenerateEnsemble(scale, scale.ValSims, 0x5eed0ff5)
	if err != nil {
		return nil, err
	}
	return core.NewValidationSet(scale.CoreNormalizer(), val.AllSamples()), nil
}
