package melissa_test

// One benchmark per table and figure of the paper's evaluation (§4), plus
// ablations of the Reservoir's capacity and threshold, its eviction rule,
// the all-reduce cost and the offline dataset size. Each benchmark executes
// the experiment and prints the corresponding rows/series on its first
// iteration, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Timing experiments replay the paper's
// cluster runs on the discrete-event simulator at full scale; quality
// experiments train core.Trainer, the trainer the server runs, at the
// MELISSA_SCALE preset (tiny|default|large, default "default"), with one
// in-process data-parallel rank per simulated GPU.
//
// This file lives in the external test package: internal/experiments
// imports melissa (for the Problem API), so importing it from an
// in-package test would cycle.

import (
	"context"
	"os"
	"testing"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/experiments"
)

func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	s, err := experiments.ScaleByName(os.Getenv("MELISSA_SCALE"))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFigure2Throughput regenerates Figure 2: throughput and buffer
// population over time for FIFO/FIRO/Reservoir at paper scale.
func BenchmarkFigure2Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.MeanThroughput(buffer.ReservoirKind), "reservoir-samples/s")
		b.ReportMetric(res.MeanThroughput(buffer.FIFOKind), "fifo-samples/s")
	}
}

// BenchmarkFigure3Occurrences regenerates Figure 3: the sample-repetition
// histograms of the Reservoir for 1/2/4 GPUs.
func BenchmarkFigure3Occurrences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.MeanOcc[4], "mean-occ-4gpu")
	}
}

// BenchmarkFigure4Quality regenerates Figure 4: training/validation loss
// for each buffer against the one-epoch offline reference (real training).
func BenchmarkFigure4Quality(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.Run("Reservoir").FinalVal, "reservoir-valMSE")
		b.ReportMetric(res.Run("FIFO").FinalVal, "fifo-valMSE")
	}
}

// BenchmarkFigure5MultiGPU regenerates Figure 5: validation loss across
// buffers × {1,2,4} GPUs (real training).
func BenchmarkFigure5MultiGPU(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.Run(buffer.ReservoirKind, 4).FinalVal, "reservoir4-valMSE")
	}
}

// BenchmarkFigure6OnlineVsOffline regenerates Figure 6: online Reservoir on
// the large ensemble vs offline multi-epoch training from disk.
func BenchmarkFigure6OnlineVsOffline(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(100*res.Improvement, "improvement-%")
	}
}

// BenchmarkTable1 regenerates Table 1: generation/total hours, min MSE and
// mean throughput for Offline/FIFO/FIRO/Reservoir × {1,2,4} GPUs.
func BenchmarkTable1(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(scale, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.Row("Reservoir", 4).ThroughputSmps, "reservoir4-samples/s")
	}
}

// BenchmarkTable2 regenerates Table 2: the 8 TB online run vs the 100-epoch
// offline baseline at 4 GPUs.
func BenchmarkTable2(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(scale, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.ThroughputRatio, "online/offline-ratio")
		b.ReportMetric(res.OnlineTotalH, "online-hours")
	}
}

// BenchmarkAppendixAResidency regenerates Appendix A: measured Reservoir
// residency vs the closed form n−1.
func BenchmarkAppendixAResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.AppendixA([]int{16, 64, 256}, 40000)
		if i == 0 {
			res.Render(os.Stdout)
		}
		b.ReportMetric(res.Rows[1].RelError, "relerr-n64")
	}
}

// BenchmarkAblationCapacity sweeps the Reservoir capacity at paper scale.
func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCapacity(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderAblations(os.Stdout, rows, nil, nil)
		}
	}
}

// BenchmarkAblationThreshold sweeps the Reservoir threshold at paper scale.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationThreshold(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderAblations(os.Stdout, nil, rows, nil)
		}
	}
}

// BenchmarkAblationAllReduce evaluates the multi-GPU scaling model.
func BenchmarkAblationAllReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationAllReduce()
		if i == 0 {
			experiments.RenderAblations(os.Stdout, nil, nil, rows)
		}
	}
}

// BenchmarkAblationEviction contrasts the Reservoir's seen-only eviction
// with a uniform-eviction ablation under overproduction.
func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationEviction()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderEvictionAblation(os.Stdout, rows)
		}
		b.ReportMetric(rows[1].Coverage, "uniform-coverage")
	}
}

// BenchmarkAblationOfflineDataSize sweeps the Figure 6 crossover: offline
// dataset size vs online improvement at fixed budget (real training).
func BenchmarkAblationOfflineDataSize(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOfflineData(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderOfflineDataAblation(os.Stdout, rows)
		}
	}
}

// BenchmarkCostAnalysis regenerates the §5 cost accounting (online 63.8€
// vs offline 49.1€ at Jean-Zay tariffs) plus the §3.1 reservation-order
// comparison.
func BenchmarkCostAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CostAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.ReservationOrder(1.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(os.Stdout)
			experiments.RenderReservation(os.Stdout, rows)
		}
		b.ReportMetric(res.Rows[0].TotalEuro, "online-euro")
	}
}

// BenchmarkLiveOnlineTraining measures the real end-to-end live framework
// (TCP transport, launcher, solver clients, training server) at laptop
// scale — the system the examples exercise, as opposed to the simulated
// cluster above.
func BenchmarkLiveOnlineTraining(b *testing.B) {
	cfg := melissa.DefaultConfig()
	cfg.Simulations = 8
	cfg.GridN = 12
	cfg.StepsPerSim = 10
	cfg.ValidationSims = 0
	cfg.Hidden = []int{32}
	for i := 0; i < b.N; i++ {
		res, err := melissa.RunOnline(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "samples/s")
	}
}
