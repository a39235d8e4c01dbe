// Package cluster models the Jean-Zay hardware the paper evaluates on
// (§4.2): solver time per step as a function of core count, GPU batch
// compute time, ring all-reduce cost across GPUs, and the parallel
// filesystem feeding the offline baseline. The constants are calibrated
// against the figures the paper reports (Table 1, Table 2, Figure 2), which
// perfmodel_test.go pins; the cluster simulator charges these durations to
// its virtual clock while executing the real buffer and scheduler
// algorithms, so the *shapes* of the timing results emerge from the
// algorithms rather than being scripted.
package cluster

// PerfModel holds the calibrated machine constants.
type PerfModel struct {
	// SolverCoreSecPerStep is W: the core-seconds one solver time step
	// costs at the paper's 1000×1000 grid. 20 cores → ~0.9 s/step, which
	// places the series transitions of Figure 2 near 100 s and 200 s.
	SolverCoreSecPerStep float64
	// SolverOverheadPerCore is o in eff(p) = 1/(1+o·p), the parallel
	// efficiency loss of the MPI solver.
	SolverOverheadPerCore float64

	// GPUBatchSec is the forward+backward time of one batch of 10 samples
	// on a V100 for the 514M-parameter MLP. Reservoir at 1 GPU sustains
	// 147.6 samples/s (Table 1) → ≈ 67.7 ms per batch.
	GPUBatchSec float64
	// GradBytes is the gradient volume all-reduced per step (514M × 4 B).
	GradBytes float64
	// AllReduceBW is the effective NVLink ring bandwidth.
	AllReduceBW float64
	// AllReduceLatencySec is the per-hop launch latency.
	AllReduceLatencySec float64

	// SampleBytes is one training sample on the wire / on disk
	// (1000×1000 float32 ≈ 4 MB).
	SampleBytes float64
	// DiskSharedBW is the parallel-filesystem read bandwidth shared by all
	// dataloader workers; it caps the offline pipeline at ≈ 38 samples/s
	// with 4 GPUs (Table 2).
	DiskSharedBW float64
	// WorkerStreamBW is the per-dataloader-worker effective read rate
	// (syscall + page-cache + copy path); 8 workers per GPU at ≈ 6.6 MB/s
	// reproduce the 13.2 samples/s single-GPU offline rate (Table 1).
	WorkerStreamBW float64
	// LoaderWorkersPerGPU matches the paper's Dataloader setting (§4.6).
	LoaderWorkersPerGPU int
	// DiskWriteBW is the shared write bandwidth used when generating
	// offline datasets (Table 1/2 "Generation" column).
	DiskWriteBW float64

	// LauncherSubmitSec is the per-job submission overhead, and
	// SeriesGapSec the idle gap between client series (the dips of
	// Figure 2).
	LauncherSubmitSec float64
	SeriesGapSec      float64
}

// JeanZay returns the calibrated model. PerfModel's field comments give the
// paper's figure behind each calibrated constant.
func JeanZay() PerfModel {
	return PerfModel{
		SolverCoreSecPerStep:  18.0,
		SolverOverheadPerCore: 0.002,

		GPUBatchSec:         0.0677,
		GradBytes:           514e6 * 4,
		AllReduceBW:         216e9, // ring term B/bw ≈ 9.5 ms
		AllReduceLatencySec: 0.0005,

		SampleBytes:         4e6,
		DiskSharedBW:        153e6,
		WorkerStreamBW:      6.6e6,
		LoaderWorkersPerGPU: 8,
		DiskWriteBW:         880e6,

		LauncherSubmitSec: 0.05,
		SeriesGapSec:      10,
	}
}

// SolverStepSec returns the wall-clock seconds one solver step takes on the
// given core count: W/p scaled by the parallel efficiency 1/(1+o·p).
func (m PerfModel) SolverStepSec(cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	p := float64(cores)
	return m.SolverCoreSecPerStep / p * (1 + m.SolverOverheadPerCore*p)
}

// SimulationSec returns the wall-clock seconds a full client run takes.
func (m PerfModel) SimulationSec(cores, steps int) float64 {
	return m.SolverStepSec(cores) * float64(steps)
}

// AllReduceSec returns the ring all-reduce time across n GPUs:
// 2(n−1)/n · B/bw + n·latency; zero for a single GPU.
func (m PerfModel) AllReduceSec(n int) float64 {
	if n <= 1 {
		return 0
	}
	ring := 2 * float64(n-1) / float64(n) * m.GradBytes / m.AllReduceBW
	return ring + float64(n)*m.AllReduceLatencySec
}

// TrainStepSec returns the duration of one synchronized data-parallel
// training step on n GPUs: local batch compute plus gradient all-reduce.
func (m PerfModel) TrainStepSec(n int) float64 {
	return m.GPUBatchSec + m.AllReduceSec(n)
}

// GPUBoundSamplesPerSec is the consumption capacity of n GPUs at the given
// per-GPU batch size, ignoring data starvation — the ceiling Reservoir
// training approaches in Table 1.
func (m PerfModel) GPUBoundSamplesPerSec(n, batch int) float64 {
	return float64(n*batch) / m.TrainStepSec(n)
}

// OfflineSamplesPerSec models the offline dataloader pipeline of §4.6: per
// GPU, LoaderWorkersPerGPU workers stream samples at WorkerStreamBW each,
// all contending for DiskSharedBW; the result is additionally capped by the
// GPUs' compute throughput.
func (m PerfModel) OfflineSamplesPerSec(nGPU, batch int) float64 {
	workers := float64(nGPU * m.LoaderWorkersPerGPU)
	perWorker := m.WorkerStreamBW
	if shared := m.DiskSharedBW / workers; shared < perWorker {
		perWorker = shared
	}
	loaderBound := workers * perWorker / m.SampleBytes
	gpuBound := m.GPUBoundSamplesPerSec(nGPU, batch)
	if gpuBound < loaderBound {
		return gpuBound
	}
	return loaderBound
}

// GenerationSec returns the wall-clock seconds to generate an ensemble of
// sims simulations (steps each, coresPerSim cores) on totalCores, writing
// the produced bytes to the shared filesystem — the offline "Generation"
// column of Tables 1 and 2.
func (m PerfModel) GenerationSec(sims, steps, coresPerSim, totalCores int, writeBytes float64) float64 {
	concurrent := totalCores / coresPerSim
	if concurrent < 1 {
		concurrent = 1
	}
	waves := (sims + concurrent - 1) / concurrent
	compute := float64(waves) * m.SimulationSec(coresPerSim, steps)
	write := writeBytes / m.DiskWriteBW
	return compute + write
}
