package experiments

import (
	"fmt"
	"io"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/stats"
	"melissa/internal/trace"
)

// Figure4Result reproduces Figure 4: training and validation losses for
// FIFO, FIRO and Reservoir online training on 1 GPU, against offline
// training over one epoch on the same unique data. The paper's findings:
// FIFO shows low training loss with high validation loss (overfitting to
// the stream), FIRO mitigates it, Reservoir is stable and reaches a
// validation loss on par with the offline reference.
type Figure4Result struct {
	Scale Scale
	Runs  []*QualityRun // FIFO, FIRO, Reservoir, Offline-1-epoch
}

// Figure4 generates the ensemble with the real solver and trains the four
// settings.
func Figure4(scale Scale) (*Figure4Result, error) {
	data, err := GenerateEnsemble(scale, scale.SimsSmall, 0)
	if err != nil {
		return nil, err
	}
	q, err := newQuality(scale, scale.SimsSmall)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Scale: scale}
	for _, kind := range []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind} {
		run, err := q.train(1, string(kind), online(q.smallTopology(kind, 1), data))
		if err != nil {
			return nil, fmt.Errorf("figure4 %w", err)
		}
		res.Runs = append(res.Runs, run)
	}
	run, err := q.train(1, "Offline-1epoch", offline(scale, data.AllSamples(), 1))
	if err != nil {
		return nil, fmt.Errorf("figure4 %w", err)
	}
	res.Runs = append(res.Runs, run)
	return res, nil
}

// Render prints the summary and decimated loss curves.
func (r *Figure4Result) Render(w io.Writer) {
	norm := r.Scale.Problem.Normalizer(r.Scale.Config)
	tb := trace.NewTable("Figure 4 — training quality per buffer (1 GPU)",
		"Setting", "Batches", "Samples", "FinalTrainMSE", "FinalValMSE", "MinValMSE", "ValMSE(raw²)")
	for _, run := range r.Runs {
		finalTrain := 0.0
		if len(run.Train) > 0 {
			finalTrain = run.Train[len(run.Train)-1].Value
		}
		tb.AddRow(run.Label, run.Batches, run.Samples, finalTrain, run.FinalVal, run.MinVal, norm.RawMSE(run.FinalVal))
	}
	tb.Render(w)

	for _, run := range r.Runs {
		xs := make([]float64, len(run.Val))
		ys := make([]float64, len(run.Val))
		for i, p := range run.Val {
			xs[i] = float64(p.Batch)
			ys[i] = p.Value
		}
		dx, dy := stats.Decimate(xs, ys, 12)
		st := trace.NewTable("validation(batch) — "+run.Label, "batch", "val MSE")
		for i := range dx {
			st.AddRow(dx[i], dy[i])
		}
		st.Render(w)
	}
}

// CSV writes the loss curves for plotting.
func (r *Figure4Result) CSV(dir string) error {
	for _, run := range r.Runs {
		writeCurve := func(name string, pts []core.LossPoint) error {
			xs := make([]float64, len(pts))
			ys := make([]float64, len(pts))
			for i, p := range pts {
				xs[i] = float64(p.Batch)
				ys[i] = p.Value
			}
			return trace.WriteCSV(fmt.Sprintf("%s/fig4_%s_%s.csv", dir, name, run.Label), []string{"batch", "mse"}, xs, ys)
		}
		if err := writeCurve("train", run.Train); err != nil {
			return err
		}
		if err := writeCurve("val", run.Val); err != nil {
			return err
		}
	}
	return nil
}
