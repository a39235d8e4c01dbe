package experiments

import (
	"io"

	"melissa/internal/buffer"
	"melissa/internal/simrun"
	"melissa/internal/stats"
	"melissa/internal/trace"
)

// Figure2Result reproduces Figure 2: training throughput and buffer
// population over time for the FIFO, FIRO and Reservoir buffers on one GPU,
// with the ensemble submitted in three client series (100/100/50).
type Figure2Result struct {
	Ensemble PaperEnsemble
	Runs     map[buffer.Kind]*simrun.Result
	Kinds    []buffer.Kind
}

// Figure2 runs the §4.3 throughput experiment at full paper scale on the
// cluster simulator.
func Figure2() (*Figure2Result, error) {
	ens := SmallPaperEnsemble()
	res := &Figure2Result{
		Ensemble: ens,
		Runs:     make(map[buffer.Kind]*simrun.Result),
		Kinds:    []buffer.Kind{buffer.FIFOKind, buffer.FIROKind, buffer.ReservoirKind},
	}
	for _, kind := range res.Kinds {
		r, err := ens.RunTiming(kind, 1)
		if err != nil {
			return nil, err
		}
		res.Runs[kind] = r
	}
	return res, nil
}

// Render prints the summary table and decimated series in the layout of
// Figure 2 (top: throughput; bottom: population).
func (r *Figure2Result) Render(w io.Writer) {
	tb := trace.NewTable("Figure 2 — throughput per buffer (1 GPU, series 100/100/50)",
		"Buffer", "MeanThroughput(samples/s)", "PeakPopulation", "TrainingEnd(s)", "Samples", "Unique")
	for _, kind := range r.Kinds {
		run := r.Runs[kind]
		peak := 0
		for _, tp := range run.Trace {
			if tp.Total > peak {
				peak = tp.Total
			}
		}
		tb.AddRow(string(kind), run.MeanThroughput(), peak, run.TrainingEnd, run.Samples, run.Unique)
	}
	tb.Render(w)

	for _, kind := range r.Kinds {
		run := r.Runs[kind]
		times, rates := run.ThroughputSeries(10)
		dx, dy := stats.Decimate(times, rates, 16)
		st := trace.NewTable("throughput(t) — "+string(kind), "t(s)", "samples/s")
		for i := range dx {
			st.AddRow(dx[i], dy[i])
		}
		st.Render(w)
	}
}

// CSV writes the full-resolution series for plotting.
func (r *Figure2Result) CSV(dir string) error {
	for _, kind := range r.Kinds {
		run := r.Runs[kind]
		times, rates := run.ThroughputSeries(10)
		if err := trace.WriteCSV(dir+"/fig2_throughput_"+string(kind)+".csv", []string{"t", "samples_per_s"}, times, rates); err != nil {
			return err
		}
		pt := make([]float64, len(run.Trace))
		pop := make([]float64, len(run.Trace))
		for i, tp := range run.Trace {
			pt[i] = tp.T
			pop[i] = float64(tp.Total)
		}
		if err := trace.WriteCSV(dir+"/fig2_population_"+string(kind)+".csv", []string{"t", "population"}, pt, pop); err != nil {
			return err
		}
	}
	return nil
}
