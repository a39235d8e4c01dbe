package cluster

import (
	"math"
	"testing"
)

// The calibration tests pin the model to the paper's reported figures
// (Table 1, Table 2, Figure 2) that PerfModel's constants are calibrated
// against.

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*want {
		t.Fatalf("%s = %v, want %v ±%.0f%%", name, got, want, relTol*100)
	}
}

func TestSolverStepCalibration(t *testing.T) {
	m := JeanZay()
	// 20 cores → ≈0.9 s/step (Figure 2: 100-step sims in ≈90-100 s).
	within(t, "step(20 cores)", m.SolverStepSec(20), 0.94, 0.05)
	// A full 100-step simulation lands the Figure 2 series near 100 s.
	within(t, "sim(20 cores)", m.SimulationSec(20, 100), 94, 0.05)
	// Table 2: 20,000 sims at 10 cores on 5,120 cores ≈ 1.9-2.0 h total.
	sec := m.SimulationSec(10, 100) * 20000 / 512
	within(t, "table2 generation", sec/3600, 1.97, 0.08)
}

func TestSolverStepMonotonicity(t *testing.T) {
	m := JeanZay()
	prev := m.SolverStepSec(1)
	for cores := 2; cores <= 64; cores *= 2 {
		cur := m.SolverStepSec(cores)
		if cur >= prev {
			t.Fatalf("no speedup from %d cores: %v >= %v", cores, cur, prev)
		}
		prev = cur
	}
	if m.SolverStepSec(0) != m.SolverStepSec(1) {
		t.Fatal("0 cores should clamp to 1")
	}
}

func TestGPUThroughputCalibration(t *testing.T) {
	m := JeanZay()
	// Table 1 Reservoir rows: 147.6 / ~212-256 / ~476 samples/s.
	within(t, "1 GPU", m.GPUBoundSamplesPerSec(1, 10), 147.6, 0.03)
	within(t, "4 GPU", m.GPUBoundSamplesPerSec(4, 10), 476, 0.08)
	// Scaling must be sublinear (all-reduce cost) but substantial.
	r2 := m.GPUBoundSamplesPerSec(2, 10) / m.GPUBoundSamplesPerSec(1, 10)
	if r2 < 1.4 || r2 > 2.0 {
		t.Fatalf("2-GPU scaling %v outside (1.4, 2.0)", r2)
	}
	r4 := m.GPUBoundSamplesPerSec(4, 10) / m.GPUBoundSamplesPerSec(1, 10)
	if r4 < 2.8 || r4 > 4.0 {
		t.Fatalf("4-GPU scaling %v outside (2.8, 4.0)", r4)
	}
}

func TestAllReduce(t *testing.T) {
	m := JeanZay()
	if m.AllReduceSec(1) != 0 {
		t.Fatal("single GPU must not pay all-reduce")
	}
	// Cost grows with n for the ring model.
	if !(m.AllReduceSec(2) < m.AllReduceSec(4)) {
		t.Fatal("all-reduce cost must grow with GPU count")
	}
}

func TestOfflineThroughputCalibration(t *testing.T) {
	m := JeanZay()
	// Table 1 offline rows: 13.2 (1 GPU), 43.2→ (4 GPU, Table 2 reports
	// 38.2 for the large run); the loader, not the GPU, must bind.
	within(t, "offline 1 GPU", m.OfflineSamplesPerSec(1, 10), 13.2, 0.05)
	within(t, "offline 4 GPU", m.OfflineSamplesPerSec(4, 10), 38.2, 0.10)
	for _, n := range []int{1, 2, 4} {
		if m.OfflineSamplesPerSec(n, 10) >= m.GPUBoundSamplesPerSec(n, 10) {
			t.Fatalf("offline at %d GPUs not I/O bound", n)
		}
	}
}

func TestOnlineVsOfflineRatio(t *testing.T) {
	m := JeanZay()
	// Table 2 headline: online throughput ≈ 13× offline at 4 GPUs.
	ratio := m.GPUBoundSamplesPerSec(4, 10) / m.OfflineSamplesPerSec(4, 10)
	if ratio < 10 || ratio > 16 {
		t.Fatalf("online/offline ratio %v outside [10,16] (paper ≈ 12.5)", ratio)
	}
}

func TestGenerationCalibration(t *testing.T) {
	m := JeanZay()
	// Table 1: 250 sims × 100 steps, 20 cores each, 2,000 cores, 450 GB
	// written → ≈ 0.22 h.
	sec := m.GenerationSec(250, 100, 20, 2000, 450e9)
	within(t, "offline generation", sec/3600, 0.22, 0.15)
}

func TestGenerationWaves(t *testing.T) {
	m := JeanZay()
	// More total cores → fewer waves → faster generation.
	slow := m.GenerationSec(100, 100, 20, 400, 0)
	fast := m.GenerationSec(100, 100, 20, 2000, 0)
	if fast >= slow {
		t.Fatalf("generation did not speed up with cores: %v vs %v", fast, slow)
	}
	// Exactly ceil(sims/concurrent) waves of compute when no write cost.
	got := m.GenerationSec(5, 100, 20, 40, 0) // 2 concurrent → 3 waves
	want := 3 * m.SimulationSec(20, 100)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("waves: got %v want %v", got, want)
	}
}
