package experiments

import (
	"fmt"
	"io"

	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/trace"
)

// Table1Row is one line of Table 1: a buffer (or the offline baseline) at a
// GPU count.
type Table1Row struct {
	Buffer         string
	GPUs           int
	GenerationH    float64 // offline only; 0 for online rows (—)
	TotalH         float64
	MinMSE         float64 // from the quality runs (normalized units)
	ThroughputSmps float64
	Samples        int
	Unique         int
}

// Table1Result reproduces Table 1: training and throughput performance for
// Offline/FIFO/FIRO/Reservoir across 1, 2 and 4 GPUs. Timing comes from
// the paper-scale cluster simulation; the MSE column from real training at
// the reduced quality scale.
type Table1Result struct {
	Scale Scale
	Rows  []Table1Row
}

// Table1 runs the full grid. When withQuality is false the MSE column is
// left at zero (used by quick tests; benches run the full version).
func Table1(scale Scale, withQuality bool) (*Table1Result, error) {
	ens := SmallPaperEnsemble()
	model := cluster.JeanZay()
	res := &Table1Result{Scale: scale}

	// Quality runs for the MSE column.
	type key struct {
		kind buffer.Kind
		gpus int
	}
	minMSE := map[key]float64{}
	offlineMSE := map[int]float64{}
	if withQuality {
		data, err := GenerateEnsemble(scale, scale.SimsSmall, 0)
		if err != nil {
			return nil, err
		}
		q, err := newQuality(scale, scale.SimsSmall)
		if err != nil {
			return nil, err
		}
		for _, kind := range []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind} {
			for _, gpus := range []int{1, 2, 4} {
				run, err := q.train(gpus, kindLabel(kind, gpus), online(q.smallTopology(kind, gpus), data))
				if err != nil {
					return nil, fmt.Errorf("table1 %w", err)
				}
				minMSE[key{kind, gpus}] = run.MinVal
			}
		}
		for _, gpus := range []int{1, 2, 4} {
			run, err := q.train(gpus, kindLabel("Offline", gpus), offline(scale, data.AllSamples(), 1))
			if err != nil {
				return nil, fmt.Errorf("table1 %w", err)
			}
			offlineMSE[gpus] = run.MinVal
		}
	}

	// Offline timing: paper-scale dataset of 25,000 samples (100 GB), one
	// epoch, generation on 2,000 cores writing ~450 GB of raw step files.
	paperSamples := float64(ens.Simulations * ens.StepsPerSim)
	genSec := model.GenerationSec(ens.Simulations, ens.StepsPerSim, ens.CoresPerClient, ens.TotalCores, 450e9)
	for _, gpus := range []int{1, 2, 4} {
		thr := model.OfflineSamplesPerSec(gpus, ens.BatchSize)
		trainSec := paperSamples / thr
		res.Rows = append(res.Rows, Table1Row{
			Buffer:         "Offline",
			GPUs:           gpus,
			GenerationH:    genSec / 3600,
			TotalH:         (genSec + trainSec) / 3600,
			MinMSE:         offlineMSE[gpus],
			ThroughputSmps: thr,
			Samples:        int(paperSamples),
			Unique:         int(paperSamples),
		})
		for _, kind := range []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind} {
			run, err := ens.RunTiming(kind, gpus)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Table1Row{
				Buffer:         string(kind),
				GPUs:           gpus,
				TotalH:         run.TrainingEnd / 3600,
				MinMSE:         minMSE[key{kind, gpus}],
				ThroughputSmps: run.MeanThroughput(),
				Samples:        run.Samples,
				Unique:         run.Unique,
			})
		}
	}
	return res, nil
}

// Row fetches a row by buffer name and GPU count.
func (r *Table1Result) Row(buf string, gpus int) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].Buffer == buf && r.Rows[i].GPUs == gpus {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render(w io.Writer) {
	tb := trace.NewTable("Table 1 — training and throughput by buffer × GPUs (timing at paper scale; MSE at quality scale)",
		"Buffer", "GPUs", "Generation(h)", "Total(h)", "MinMSE", "Throughput(samples/s)")
	for _, row := range r.Rows {
		gen := any("—")
		if row.GenerationH > 0 {
			gen = row.GenerationH
		}
		mse := any("—")
		if row.MinMSE > 0 {
			mse = row.MinMSE
		}
		tb.AddRow(row.Buffer, row.GPUs, gen, row.TotalH, mse, row.ThroughputSmps)
	}
	tb.Render(w)
}
