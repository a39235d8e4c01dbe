package experiments

import (
	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/simrun"
)

// PaperEnsemble describes the §4.3 throughput experiment at full paper
// scale: 250 simulations of 100 steps, submitted in series of 100/100/50
// concurrent clients of 20 cores each (50 nodes), a 6,000-sample buffer
// with a 1,000-sample threshold, batch size 10.
type PaperEnsemble struct {
	Simulations    int
	StepsPerSim    int
	CoresPerClient int
	TotalCores     int
	Series         []int
	BatchSize      int
	Capacity       int
	Threshold      int
	Seed           uint64
}

// SmallPaperEnsemble is the Table 1 / Figures 2-5 setting.
func SmallPaperEnsemble() PaperEnsemble {
	return PaperEnsemble{
		Simulations:    250,
		StepsPerSim:    100,
		CoresPerClient: 20,
		TotalCores:     2000, // 100 concurrent clients on 50 nodes
		Series:         []int{100, 100, 50},
		BatchSize:      10,
		Capacity:       6000,
		Threshold:      1000,
		Seed:           2023,
	}
}

// LargePaperEnsemble is the Table 2 online setting: 20,000 simulations,
// 512 concurrent clients of 10 cores (128 nodes, 5,120 cores).
func LargePaperEnsemble() PaperEnsemble {
	return PaperEnsemble{
		Simulations:    20000,
		StepsPerSim:    100,
		CoresPerClient: 10,
		TotalCores:     5120,
		Series:         nil, // one series; concurrency is resource-bound
		BatchSize:      10,
		Capacity:       6000,
		Threshold:      1000,
		Seed:           2023,
	}
}

// Options assembles the cluster-simulator options for a buffer kind and GPU
// count.
func (p PaperEnsemble) Options(kind buffer.Kind, gpus int) simrun.Options {
	return simrun.Options{
		Model:          cluster.JeanZay(),
		Simulations:    p.Simulations,
		StepsPerSim:    p.StepsPerSim,
		CoresPerClient: p.CoresPerClient,
		TotalCores:     p.TotalCores,
		Series:         append([]int(nil), p.Series...),
		GPUs:           gpus,
		BatchSize:      p.BatchSize,
		Buffer:         buffer.Config{Kind: kind, Capacity: p.Capacity, Threshold: p.Threshold, Seed: p.Seed},
	}
}

// RunTiming executes the timing-only cluster simulation.
func (p PaperEnsemble) RunTiming(kind buffer.Kind, gpus int) (*simrun.Result, error) {
	return simrun.Run(p.Options(kind, gpus))
}
