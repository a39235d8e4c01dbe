package experiments

import (
	"fmt"
	"io"
	"os"

	"melissa/internal/core"
	"melissa/internal/dataset"
	"melissa/internal/trace"
)

// Figure6Result reproduces Figure 6 (and the quality half of Table 2):
// online Reservoir training on a large streamed ensemble versus offline
// multi-epoch training on a fixed small dataset read back from disk, both
// on 4 GPUs. The paper's finding: the offline run overfits (validation
// plateaus above the still-falling training loss) while online training on
// ever-fresh data keeps improving, ending with a validation loss improved
// by ~47%.
type Figure6Result struct {
	Scale   Scale
	Online  *QualityRun
	Offline *QualityRun
	// OfflineBytes is the on-disk size of the offline dataset.
	OfflineBytes int64
	// Improvement is 1 − online/offline final validation MSE.
	Improvement float64
}

// Figure6 runs both settings at the given scale. The offline baseline
// writes the small ensemble to disk (one binary file per simulation) and
// trains through the multi-worker loader for Scale.OfflineEpochs; the
// online run streams Scale.SimsLarge fresh simulations through the
// Reservoir on the cluster simulator.
func Figure6(scale Scale) (*Figure6Result, error) {
	valSet, err := ValidationSet(scale)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{Scale: scale}
	const gpus = 4

	// Offline: a fixed small ensemble, many epochs, data from disk. The
	// dataset is sized (Scale.OfflineSims) so that the reduced-capacity
	// model is in the same memorization regime as the paper's
	// 514M-parameter network on 25,000 samples.
	small, err := GenerateEnsemble(scale, scale.OfflineSims(), 0)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "melissa-fig6-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	norm := scale.Normalizer()
	for sim := 0; sim < small.Sims(); sim++ {
		w, err := dataset.Create(dir, sim, scale.StepsPerSim, norm.InputDim(), scale.FieldDim())
		if err != nil {
			return nil, err
		}
		for step := 1; step <= scale.StepsPerSim; step++ {
			s := small.Sample(sim, step)
			if err := w.WriteStep(s.Input, s.Output); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	ds, err := dataset.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	res.OfflineBytes = ds.Bytes()

	loader := dataset.NewLoader(ds, scale.BatchSize*gpus, 8, scale.Seed^0xd15c)
	res.Offline, err = train(scale, valSet, gpus, fmt.Sprintf("Offline-%depochs", scale.OfflineEpochs), func(f *core.Feeder) error {
		for epoch := 0; epoch < scale.OfflineEpochs; epoch++ {
			if err := loader.Epoch(f.Deal); err != nil {
				return fmt.Errorf("epoch %d: %w", epoch, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figure6 %w", err)
	}

	// Online: large fresh ensemble streamed through the Reservoir.
	large, err := GenerateEnsemble(scale, scale.SimsLarge, 0xb16)
	if err != nil {
		return nil, err
	}
	res.Online, err = train(scale, valSet, gpus, "Online-Reservoir", online(largeTopology(scale, gpus), large))
	if err != nil {
		return nil, fmt.Errorf("figure6 %w", err)
	}

	if res.Offline.FinalVal > 0 {
		res.Improvement = 1 - res.Online.FinalVal/res.Offline.FinalVal
	}
	return res, nil
}

// Render prints the comparison.
func (r *Figure6Result) Render(w io.Writer) {
	norm := r.Scale.Normalizer()
	tb := trace.NewTable("Figure 6 — online (large ensemble) vs offline (multi-epoch)",
		"Setting", "UniqueSamples", "SamplesTrained", "Batches", "FinalValMSE", "ValMSE(raw²)")
	off := r.Offline
	tb.AddRow(off.Label, r.Scale.OfflineSims()*r.Scale.StepsPerSim, off.Samples, off.Batches, off.FinalVal, norm.RawMSE(off.FinalVal))
	on := r.Online
	tb.AddRow(on.Label, on.Unique, on.Samples, on.Batches, on.FinalVal, norm.RawMSE(on.FinalVal))
	tb.Render(w)
	fmt.Fprintf(w, "online validation improvement over offline: %.1f%% (paper: 47%%)\n", 100*r.Improvement)
}

// CSV dumps both validation curves against batches.
func (r *Figure6Result) CSV(dir string) error {
	for _, run := range []*QualityRun{r.Online, r.Offline} {
		xs := make([]float64, len(run.Val))
		ys := make([]float64, len(run.Val))
		for i, p := range run.Val {
			xs[i] = float64(p.Batch)
			ys[i] = p.Value
		}
		if err := trace.WriteCSV(fmt.Sprintf("%s/fig6_val_%s.csv", dir, run.Label), []string{"batch", "mse"}, xs, ys); err != nil {
			return err
		}
	}
	return nil
}
