package experiments

import (
	"context"
	"fmt"
	"io"
	"os"

	"melissa"
	"melissa/internal/core"
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

// Figure6 runs both settings at the given scale, on 4 ranks. The offline
// baseline is the product's offline path: melissa.GenerateDataset writes
// Scale.OfflineSims members to disk (one binary file per simulation) and
// melissa.TrainOffline trains them through the multi-worker loader for
// Scale.OfflineEpochs. The online run streams Scale.SimsLarge fresh
// simulations through the Reservoir on the cluster simulator. Both train
// the trainer melissa.ServerConfig builds from the scale's Config.
func Figure6(scale Scale) (*Figure6Result, error) {
	const gpus = 4
	res := &Figure6Result{Scale: scale}

	// Offline: a fixed small ensemble, many epochs, data from disk. The
	// dataset is sized (Scale.OfflineSims) so that the reduced-capacity
	// model is in the same memorization regime as the paper's
	// 514M-parameter network on 25,000 samples.
	dir, err := os.MkdirTemp("", "melissa-fig6-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	cfg := scale.Config
	cfg.Simulations = scale.OfflineSims()
	cfg.Ranks = gpus
	cfg.ValidateEvery = scale.validateEvery(gpus)
	info, err := melissa.GenerateDataset(ctx, cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("figure6 offline dataset: %w", err)
	}
	res.OfflineBytes = info.Bytes
	off, err := melissa.TrainOffline(ctx, cfg, dir, scale.OfflineEpochs, 8)
	if err != nil {
		return nil, fmt.Errorf("figure6 offline: %w", err)
	}
	res.Offline = offlineRun(fmt.Sprintf("Offline-%depochs", scale.OfflineEpochs), off)

	// Online: large fresh ensemble streamed through the Reservoir.
	q, err := newQuality(scale, scale.SimsLarge)
	if err != nil {
		return nil, err
	}
	large, err := GenerateEnsemble(scale, scale.SimsLarge, 0xb16)
	if err != nil {
		return nil, err
	}
	res.Online, err = q.train(gpus, "Online-Reservoir", online(q.largeTopology(gpus), large))
	if err != nil {
		return nil, fmt.Errorf("figure6 %w", err)
	}

	if res.Offline.FinalVal > 0 {
		res.Improvement = 1 - res.Online.FinalVal/res.Offline.FinalVal
	}
	return res, nil
}

// offlineRun reads a TrainOffline result as a quality run.
func offlineRun(label string, r *melissa.RunResult) *QualityRun {
	run := &QualityRun{
		Label:    label,
		FinalVal: r.ValidationMSE,
		Batches:  r.Batches,
		Samples:  r.Samples,
		Unique:   r.UniqueSamples,
	}
	for _, p := range r.TrainCurve {
		run.Train = append(run.Train, core.LossPoint{Batch: p.Batch, Samples: p.Samples, Value: p.MSE})
	}
	for i, p := range r.ValidationCurve {
		run.Val = append(run.Val, core.LossPoint{Batch: p.Batch, Samples: p.Samples, Value: p.MSE})
		if i == 0 || p.MSE < run.MinVal {
			run.MinVal = p.MSE
		}
	}
	return run
}

// Render prints the comparison.
func (r *Figure6Result) Render(w io.Writer) {
	norm := r.Scale.Problem.Normalizer(r.Scale.Config)
	tb := trace.NewTable("Figure 6 — online (large ensemble) vs offline (multi-epoch)",
		"Setting", "UniqueSamples", "SamplesTrained", "Batches", "FinalValMSE", "ValMSE(raw²)")
	off := r.Offline
	tb.AddRow(off.Label, off.Unique, off.Samples, off.Batches, off.FinalVal, norm.RawMSE(off.FinalVal))
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
