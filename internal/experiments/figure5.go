package experiments

import (
	"fmt"
	"io"

	"melissa/internal/buffer"
	"melissa/internal/trace"
)

// Figure5Result reproduces Figure 5: validation loss against the number of
// training samples for FIFO/FIRO/Reservoir across 1, 2 and 4 GPUs, with an
// offline single-epoch reference. The paper's finding: Reservoir
// consistently achieves the lowest validation loss at every GPU count —
// often less than half of FIRO's — and with 4 GPUs beats the one-epoch
// offline reference thanks to its extra optimization steps.
type Figure5Result struct {
	Scale   Scale
	GPUs    []int
	Kinds   []buffer.Kind
	Online  map[string]*QualityRun // key: kindLabel(kind, gpus)
	Offline *QualityRun
}

// Figure5 runs the 3×3 online grid plus the offline reference.
func Figure5(scale Scale) (*Figure5Result, error) {
	data, err := GenerateEnsemble(scale, scale.SimsSmall, 0)
	if err != nil {
		return nil, err
	}
	q, err := newQuality(scale, scale.SimsSmall)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{
		Scale:  scale,
		GPUs:   []int{1, 2, 4},
		Kinds:  []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind},
		Online: make(map[string]*QualityRun),
	}
	for _, kind := range res.Kinds {
		for _, gpus := range res.GPUs {
			label := kindLabel(kind, gpus)
			run, err := q.train(gpus, label, online(q.smallTopology(kind, gpus), data))
			if err != nil {
				return nil, fmt.Errorf("figure5 %w", err)
			}
			res.Online[label] = run
		}
	}
	res.Offline, err = q.train(1, "Offline-1epoch", offline(scale, data.AllSamples(), 1))
	if err != nil {
		return nil, fmt.Errorf("figure5 %w", err)
	}
	return res, nil
}

// Run fetches an online run by kind and GPU count.
func (r *Figure5Result) Run(kind buffer.Kind, gpus int) *QualityRun {
	return r.Online[kindLabel(kind, gpus)]
}

// Render prints the final validation losses in the paper's grid layout.
func (r *Figure5Result) Render(w io.Writer) {
	tb := trace.NewTable("Figure 5 — final validation MSE by buffer × GPUs",
		"Buffer", "1 GPU", "2 GPUs", "4 GPUs")
	for _, kind := range r.Kinds {
		row := []any{string(kind)}
		for _, gpus := range r.GPUs {
			row = append(row, r.Run(kind, gpus).FinalVal)
		}
		tb.AddRow(row...)
	}
	tb.AddRow("Offline-1epoch", r.Offline.FinalVal, "", "")
	tb.Render(w)

	st := trace.NewTable("samples consumed (repetition visible for Reservoir)",
		"Buffer", "1 GPU", "2 GPUs", "4 GPUs")
	for _, kind := range r.Kinds {
		row := []any{string(kind)}
		for _, gpus := range r.GPUs {
			row = append(row, r.Run(kind, gpus).Samples)
		}
		st.AddRow(row...)
	}
	st.Render(w)
}

// CSV writes validation-vs-samples series per run.
func (r *Figure5Result) CSV(dir string) error {
	dump := func(run *QualityRun) error {
		xs := make([]float64, len(run.Val))
		ys := make([]float64, len(run.Val))
		for i, p := range run.Val {
			xs[i] = float64(p.Samples)
			ys[i] = p.Value
		}
		return trace.WriteCSV(fmt.Sprintf("%s/fig5_val_%s.csv", dir, run.Label), []string{"samples", "mse"}, xs, ys)
	}
	for _, run := range r.Online {
		if err := dump(run); err != nil {
			return err
		}
	}
	return dump(r.Offline)
}
