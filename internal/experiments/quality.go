package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/core"
	"melissa/internal/simrun"
	"melissa/internal/telemetry"
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

// quality is what one figure trains: the trainer and the buffer
// melissa.ServerConfig builds from the scale's Config — model, normalizer,
// schedule and the held-out validation set, solved once for every run of
// the figure — as melissa-server does.
type quality struct {
	scale   Scale
	trainer core.TrainerConfig
	buffer  buffer.Config
}

// newQuality builds the server the scale's Config describes, for a figure
// that trains on an ensemble of sims members.
func newQuality(scale Scale, sims int) (*quality, error) {
	cfg := scale.Config
	cfg.Simulations = sims
	srv, err := melissa.ServerConfig(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return &quality{scale: scale, trainer: srv.Trainer, buffer: srv.Buffer}, nil
}

// validateEvery is the validation cadence of gpus ranks in full steps: one
// validation every ValidateEverySamples samples.
func (s Scale) validateEvery(gpus int) int {
	return max(1, s.ValidateEverySamples/(s.BatchSize*gpus))
}

// train runs one quality setting on the figure's trainer with gpus
// in-process data-parallel ranks, fed by produce (core.RunFed), and reads
// the run off the trainer's metrics. Validation is taken every
// ValidateEverySamples samples' worth of full steps, and once more after
// the last step.
func (q *quality) train(gpus int, label string, produce func(*core.Feeder) error) (*QualityRun, error) {
	tc := q.trainer
	tc.Ranks = gpus
	tc.ValidateEvery = q.scale.validateEvery(gpus)
	t, err := core.RunFed(context.Background(), tc, produce)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	m := t.Metrics()
	snap := m.Telemetry().Snapshot()
	run := &QualityRun{
		Label:   label,
		Train:   m.TrainLoss(),
		Val:     m.Validation(),
		Batches: snap.Counters[telemetry.Batches],
		Samples: snap.Counters[telemetry.Samples],
		Unique:  len(m.Occurrences()),
	}
	for i, p := range run.Val {
		if i == 0 || p.Value < run.MinVal {
			run.MinVal = p.Value
		}
		run.FinalVal = p.Value
	}
	return run, nil
}

// topology maps sims members onto the cluster simulator, concurrent of
// them running at once on coresPerClient cores each, trained through the
// figure's buffer of the given kind on gpus ranks.
func (q *quality) topology(sims, concurrent, coresPerClient int, kind buffer.Kind, gpus int) simrun.Options {
	buf := q.buffer
	buf.Kind = kind
	return simrun.Options{
		Model:          cluster.JeanZay(),
		Simulations:    sims,
		StepsPerSim:    q.scale.StepsPerSim,
		CoresPerClient: coresPerClient,
		TotalCores:     coresPerClient * concurrent,
		GPUs:           gpus,
		BatchSize:      q.scale.BatchSize,
		Buffer:         buf,
	}
}

// smallTopology maps a scale's small ensemble onto the cluster simulator,
// preserving the paper's §4.3 ratios: 40% of the ensemble runs concurrently
// (100 of 250), 20 cores per client, submission in 40/40/20% series.
func (q *quality) smallTopology(kind buffer.Kind, gpus int) simrun.Options {
	sims := q.scale.SimsSmall
	s1 := (sims*2 + 4) / 5 // 40%
	series := []int{s1, s1, sims - 2*s1}
	if series[2] <= 0 {
		series = []int{sims}
		s1 = sims
	}
	opts := q.topology(sims, s1, 20, kind, gpus)
	opts.Series = series
	return opts
}

// largeTopology maps the large ensemble (Fig 6 / Table 2 analogue): half
// the ensemble concurrent, 10 cores per client — reproducing the paper's
// production:consumption ratio (≈273 vs 476 samples/s at 4 GPUs).
func (q *quality) largeTopology(gpus int) simrun.Options {
	sims := q.scale.SimsLarge
	return q.topology(sims, max(1, (sims+1)/2), 10, buffer.ReservoirKind, gpus)
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
