package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/core"
	"melissa/internal/opt"
	"melissa/internal/simrun"
)

// QualityRun is one real-training curve produced by a quality experiment.
type QualityRun struct {
	Label    string
	Train    []core.LossPoint
	Val      []core.LossPoint
	FinalVal float64
	MinVal   float64
	Batches  int
	Samples  int
	Unique   int
}

// train runs one quality setting on core.Trainer with gpus in-process
// data-parallel ranks, fed by produce (core.RunFed), and reads the run off
// the trainer's metrics. Validation is taken every ValidateEverySamples
// samples' worth of full steps, and once more after the last step.
func train(scale Scale, valSet *core.ValidationSet, gpus int, label string, produce func(*core.Feeder) error) (*QualityRun, error) {
	t, err := core.RunFed(context.Background(), core.TrainerConfig{
		Ranks:            gpus,
		BatchSize:        scale.BatchSize,
		Model:            scale.ModelSpec(),
		Normalizer:       scale.CoreNormalizer(),
		Schedule:         paperFig5Schedule(scale),
		Validation:       valSet,
		ValidateEvery:    max(1, scale.ValidateEverySamples/(scale.BatchSize*gpus)),
		TrackOccurrences: true,
	}, produce)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	m := t.Metrics()
	final, _ := m.FinalValidation()
	best, _ := m.MinValidation()
	return &QualityRun{
		Label:    label,
		Train:    m.TrainLoss(),
		Val:      m.Validation(),
		FinalVal: final,
		MinVal:   best,
		Batches:  m.Batches(),
		Samples:  m.Samples(),
		Unique:   len(m.Occurrences()),
	}, nil
}

// paperFig5Schedule is the §4.5 schedule: halve every 10,000 samples with a
// 2.5e-4 floor, making GPU counts comparable. The sample budget is scaled
// relative to the paper's 25,000-sample ensemble so smaller presets see the
// same number of decay steps.
func paperFig5Schedule(scale Scale) opt.Schedule {
	paperEnsemble := 25000.0
	ours := float64(scale.SimsSmall * scale.StepsPerSim)
	every := int(10000 * ours / paperEnsemble)
	if every < 1 {
		every = 1
	}
	return opt.Halving{Initial: 1e-3, EverySamples: every, Min: 2.5e-4}
}

// smallTopology maps a scale's small ensemble onto the cluster simulator,
// preserving the paper's §4.3 ratios: 40% of the ensemble runs concurrently
// (100 of 250), 20 cores per client, submission in 40/40/20% series.
func smallTopology(scale Scale, kind buffer.Kind, gpus int) simrun.Options {
	sims := scale.SimsSmall
	s1 := (sims*2 + 4) / 5 // 40%
	s2 := s1
	s3 := sims - s1 - s2
	series := []int{s1, s2, s3}
	if s3 <= 0 {
		series = []int{sims}
		s1 = sims
	}
	return simrun.Options{
		Model:          cluster.JeanZay(),
		Simulations:    sims,
		StepsPerSim:    scale.StepsPerSim,
		CoresPerClient: 20,
		TotalCores:     20 * s1,
		Series:         series,
		GPUs:           gpus,
		BatchSize:      scale.BatchSize,
		Buffer:         scale.BufferConfig(kind),
	}
}

// largeTopology maps the large ensemble (Fig 6 / Table 2 analogue): half
// the ensemble concurrent, 10 cores per client — reproducing the paper's
// production:consumption ratio (≈273 vs 476 samples/s at 4 GPUs).
func largeTopology(scale Scale, gpus int) simrun.Options {
	sims := scale.SimsLarge
	concurrent := (sims + 1) / 2
	if concurrent < 1 {
		concurrent = 1
	}
	return simrun.Options{
		Model:          cluster.JeanZay(),
		Simulations:    sims,
		StepsPerSim:    scale.StepsPerSim,
		CoresPerClient: 10,
		TotalCores:     10 * concurrent,
		GPUs:           gpus,
		BatchSize:      scale.BatchSize,
		Buffer:         scale.BufferConfig(buffer.ReservoirKind),
	}
}

// online feeds a cluster-simulated online run: virtual clients stream real
// solver data through the buffer policy, and every synchronized step of the
// simulator hands each rank its batch. A batch shorter than BatchSize comes
// from a rank the simulator has drained, so the rank's reception ends with
// it; the simulator's steps and the trainer's then stay one to one.
func online(opts simrun.Options, data *EnsembleData) func(*core.Feeder) error {
	return func(f *core.Feeder) error {
		var refused error
		opts.MakeClient = func(simID int) func(step int) buffer.Sample {
			return func(step int) buffer.Sample { return data.Sample(simID, step) }
		}
		opts.OnTrainStep = func(_ int, batches [][]buffer.Sample) {
			for r, batch := range batches {
				for _, s := range batch {
					if !f.Put(r, s) && refused == nil {
						refused = fmt.Errorf("rank %d refused sim %d step %d", r, s.SimID, s.Step)
					}
				}
				if len(batch) < opts.BatchSize {
					f.End(r)
				}
			}
		}
		if _, err := simrun.Run(opts); err != nil {
			return err
		}
		return refused
	}
}

// offline feeds the paper's offline reference: epochs passes over samples,
// each reshuffling them in place with the seeded uniform shuffle of its
// epoch, dealt to the ranks (§4.4: "offline training performed over one
// epoch with data read from files (data are seen only once)").
func offline(scale Scale, samples []buffer.Sample, epochs int) func(*core.Feeder) error {
	return func(f *core.Feeder) error {
		for e := range epochs {
			rng := rand.New(rand.NewPCG(scale.Seed^0x0ff1e, 77+uint64(e)))
			rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			if err := f.Deal(samples); err != nil {
				return err
			}
		}
		return nil
	}
}

func kindLabel(kind buffer.Kind, gpus int) string {
	if gpus == 1 {
		return string(kind)
	}
	return fmt.Sprintf("%s-%dGPU", kind, gpus)
}
