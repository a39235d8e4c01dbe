package experiments

import (
	"fmt"
	"io"

	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/trace"
)

// Ablations probe the design choices behind the paper's results: the
// Reservoir's capacity and threshold (§3.2.3), and the all-reduce cost
// model behind multi-GPU scaling (§4.5). All run at paper scale on the
// cluster simulator.

// AblationCapacityRow records one capacity setting.
type AblationCapacityRow struct {
	Capacity   int
	Throughput float64
	Repetition float64 // samples consumed / unique samples
	PeakPop    int
}

// AblationCapacity sweeps the Reservoir capacity (paper default: 6,000).
// Larger buffers store more history and allow more repetition, raising
// throughput at the cost of memory; the sweep locates the knee.
func AblationCapacity(capacities []int) ([]AblationCapacityRow, error) {
	if len(capacities) == 0 {
		capacities = []int{750, 1500, 3000, 6000, 12000, 24000}
	}
	ens := SmallPaperEnsemble()
	var rows []AblationCapacityRow
	for _, c := range capacities {
		ens.Capacity = c
		if ens.Threshold >= c {
			ens.Threshold = c / 6
		}
		run, err := ens.RunTiming(buffer.ReservoirKind, 1)
		if err != nil {
			return nil, err
		}
		peak := 0
		for _, tp := range run.Trace {
			if tp.Total > peak {
				peak = tp.Total
			}
		}
		rows = append(rows, AblationCapacityRow{
			Capacity:   c,
			Throughput: run.MeanThroughput(),
			Repetition: float64(run.Samples) / float64(run.Unique),
			PeakPop:    peak,
		})
	}
	return rows, nil
}

// AblationThresholdRow records one threshold setting.
type AblationThresholdRow struct {
	Threshold    int
	Throughput   float64
	FirstBatchAt float64 // virtual seconds until the first training step
}

// AblationThreshold sweeps the extraction threshold (paper default: 1,000).
// A higher threshold delays the first batches (more diverse early training)
// but postpones GPU work.
func AblationThreshold(thresholds []int) ([]AblationThresholdRow, error) {
	if len(thresholds) == 0 {
		thresholds = []int{0, 100, 500, 1000, 2000, 4000}
	}
	ens := SmallPaperEnsemble()
	var rows []AblationThresholdRow
	for _, th := range thresholds {
		ens.Threshold = th
		run, err := ens.RunTiming(buffer.ReservoirKind, 1)
		if err != nil {
			return nil, err
		}
		first := 0.0
		if len(run.Steps) > 0 {
			first = run.Steps[0].T
		}
		rows = append(rows, AblationThresholdRow{
			Threshold:    th,
			Throughput:   run.MeanThroughput(),
			FirstBatchAt: first,
		})
	}
	return rows, nil
}

// AblationEvictionRow contrasts the Reservoir's seen-only eviction with a
// uniform-eviction ablation on the same workload.
type AblationEvictionRow struct {
	Policy     string
	Unique     int     // distinct samples that reached training
	Produced   int     // samples the ensemble generated
	Coverage   float64 // Unique / Produced
	Throughput float64
}

// AblationEviction runs the paper-scale ensemble through the real
// Reservoir and through the UniformEvict ablation. The Reservoir guarantees
// full coverage — "avoiding discarding any unseen data" (§3.2.3) — by
// stalling production instead of evicting unseen samples; the ablation
// keeps producers unblocked but silently loses data.
func AblationEviction() ([]AblationEvictionRow, error) {
	// Overproduction regime: 400 concurrent clients feed a single GPU
	// (production ≈ 427 samples/s vs consumption ≈ 148), so the buffer is
	// persistently full and eviction pressure is constant.
	ens := SmallPaperEnsemble()
	ens.TotalCores = 8000
	ens.Series = nil
	produced := ens.Simulations * ens.StepsPerSim
	var rows []AblationEvictionRow
	for _, kind := range []buffer.Kind{buffer.ReservoirKind, buffer.UniformEvictKind} {
		run, err := ens.RunTiming(kind, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationEvictionRow{
			Policy:     string(kind),
			Unique:     run.Unique,
			Produced:   produced,
			Coverage:   float64(run.Unique) / float64(produced),
			Throughput: run.MeanThroughput(),
		})
	}
	return rows, nil
}

// AblationOfflineDataRow records one offline-dataset size in the Figure 6
// crossover sweep.
type AblationOfflineDataRow struct {
	OfflineSims    int
	OfflineSamples int
	Epochs         int
	OfflineVal     float64
	OnlineVal      float64
	Improvement    float64 // 1 − online/offline; positive = online wins
}

// AblationOfflineData sweeps the offline baseline's dataset size at a fixed
// training budget, locating the crossover the paper's Figure 6 sits beyond:
// when the model can memorize the dataset over many epochs, offline
// overfits and online training on fresh data wins; with abundant offline
// data the multi-epoch baseline catches up. The online run is shared across
// rows.
func AblationOfflineData(scale Scale, simCounts []int) ([]AblationOfflineDataRow, error) {
	if len(simCounts) == 0 {
		simCounts = []int{5, 15, 50}
	}
	budget := scale.OfflineEpochs * scale.OfflineSims() * scale.StepsPerSim
	if budget <= 0 {
		budget = 100000
	}

	q, err := newQuality(scale, scale.SimsLarge)
	if err != nil {
		return nil, err
	}

	// One shared online reference run.
	large, err := GenerateEnsemble(scale, scale.SimsLarge, 0xb16)
	if err != nil {
		return nil, err
	}
	on, err := q.train(4, "Online-Reservoir", online(q.largeTopology(4), large))
	if err != nil {
		return nil, err
	}
	onlineVal := on.FinalVal

	var rows []AblationOfflineDataRow
	for _, sims := range simCounts {
		data, err := GenerateEnsemble(scale, sims, 0)
		if err != nil {
			return nil, err
		}
		samples := sims * scale.StepsPerSim
		epochs := budget / samples
		if epochs < 1 {
			epochs = 1
		}
		off, err := q.train(4, fmt.Sprintf("Offline-%dsims", sims), offline(scale, data.AllSamples(), epochs))
		if err != nil {
			return nil, err
		}
		offVal := off.FinalVal
		rows = append(rows, AblationOfflineDataRow{
			OfflineSims:    sims,
			OfflineSamples: samples,
			Epochs:         epochs,
			OfflineVal:     offVal,
			OnlineVal:      onlineVal,
			Improvement:    1 - onlineVal/offVal,
		})
	}
	return rows, nil
}

// RenderOfflineDataAblation prints the crossover sweep.
func RenderOfflineDataAblation(w io.Writer, rows []AblationOfflineDataRow) {
	tb := trace.NewTable("Ablation — Figure 6 crossover vs offline dataset size (fixed budget, 4 GPUs)",
		"OfflineSims", "Samples", "Epochs", "OfflineValMSE", "OnlineValMSE", "OnlineImprovement")
	for _, r := range rows {
		tb.AddRow(r.OfflineSims, r.OfflineSamples, r.Epochs, r.OfflineVal, r.OnlineVal, r.Improvement)
	}
	tb.Render(w)
}

// AblationAllReduceRow compares modeled multi-GPU throughput against ideal
// linear scaling, isolating the gradient-synchronization cost.
type AblationAllReduceRow struct {
	GPUs       int
	StepSec    float64
	Throughput float64
	Ideal      float64
	Efficiency float64
}

// AblationAllReduce evaluates the ring all-reduce model for 1–8 GPUs.
func AblationAllReduce() []AblationAllReduceRow {
	m := cluster.JeanZay()
	base := m.GPUBoundSamplesPerSec(1, 10)
	var rows []AblationAllReduceRow
	for _, n := range []int{1, 2, 4, 8} {
		thr := m.GPUBoundSamplesPerSec(n, 10)
		ideal := base * float64(n)
		rows = append(rows, AblationAllReduceRow{
			GPUs:       n,
			StepSec:    m.TrainStepSec(n),
			Throughput: thr,
			Ideal:      ideal,
			Efficiency: thr / ideal,
		})
	}
	return rows
}

// RenderEvictionAblation prints the eviction-policy comparison.
func RenderEvictionAblation(w io.Writer, rows []AblationEvictionRow) {
	tb := trace.NewTable("Ablation — eviction policy under overproduction (400 clients, 1 GPU)",
		"Policy", "Unique", "Produced", "Coverage", "Throughput(samples/s)")
	for _, r := range rows {
		tb.AddRow(r.Policy, r.Unique, r.Produced, r.Coverage, r.Throughput)
	}
	tb.Render(w)
}

// RenderAblations prints all three tables.
func RenderAblations(w io.Writer, caps []AblationCapacityRow, ths []AblationThresholdRow, ars []AblationAllReduceRow) {
	tb := trace.NewTable("Ablation — Reservoir capacity (paper: 6,000)",
		"Capacity", "Throughput(samples/s)", "Repetition", "PeakPopulation")
	for _, r := range caps {
		tb.AddRow(r.Capacity, r.Throughput, r.Repetition, r.PeakPop)
	}
	tb.Render(w)

	tb = trace.NewTable("Ablation — Reservoir threshold (paper: 1,000)",
		"Threshold", "Throughput(samples/s)", "FirstBatch(s)")
	for _, r := range ths {
		tb.AddRow(r.Threshold, r.Throughput, r.FirstBatchAt)
	}
	tb.Render(w)

	tb = trace.NewTable("Ablation — ring all-reduce scaling",
		"GPUs", "StepTime(s)", "Throughput(samples/s)", "Ideal", "Efficiency")
	for _, r := range ars {
		tb.AddRow(r.GPUs, r.StepSec, r.Throughput, r.Ideal, r.Efficiency)
	}
	tb.Render(w)
}
