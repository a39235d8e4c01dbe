package melissa

import (
	"context"
	"testing"
)

func TestGenerateDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	info, err := GenerateDataset(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Simulations != cfg.Simulations {
		t.Fatalf("sims %d, want %d", info.Simulations, cfg.Simulations)
	}
	if info.Samples != cfg.Simulations*cfg.StepsPerSim {
		t.Fatalf("samples %d", info.Samples)
	}
	if info.Bytes <= 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestGenerateDatasetValidatesConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.Simulations = 0
	if _, err := GenerateDataset(context.Background(), cfg, t.TempDir()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTrainOffline(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	res, err := TrainOffline(context.Background(), cfg, dir, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Simulations * cfg.StepsPerSim
	if res.UniqueSamples != want {
		t.Fatalf("unique %d, want %d", res.UniqueSamples, want)
	}
	if res.Samples != 3*want { // three epochs
		t.Fatalf("samples %d, want %d", res.Samples, 3*want)
	}
	if res.ValidationMSE <= 0 {
		t.Fatal("no validation")
	}
	if res.Surrogate == nil || len(res.Surrogate.PredictHeat(HeatParams{TIC: 300, TX1: 300, TY1: 300, TX2: 300, TY2: 300}, 0.02)) != cfg.GridN*cfg.GridN {
		t.Fatal("surrogate broken")
	}
	// Multi-epoch training must reduce the training loss.
	tc := res.TrainCurve
	if len(tc) < 2 || tc[len(tc)-1].MSE >= tc[0].MSE {
		t.Fatalf("training loss did not decrease: %v -> %v", tc[0].MSE, tc[len(tc)-1].MSE)
	}
}

func TestTrainOfflineErrors(t *testing.T) {
	cfg := tinyConfig()
	if _, err := TrainOffline(context.Background(), cfg, t.TempDir(), 1, 2); err == nil {
		t.Fatal("expected error for empty dataset dir")
	}
	dir := t.TempDir()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOffline(context.Background(), cfg, dir, 0, 2); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

// TestWarmStartWorkflow exercises the §5 pipeline: offline pre-training
// followed by warm-started online re-training. The warm-started run's first
// validation must already be at the pre-trained level (far below a cold
// start's first validation).
func TestWarmStartWorkflow(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	pre, err := TrainOffline(context.Background(), cfg, dir, 10, 2)
	if err != nil {
		t.Fatal(err)
	}

	warmCfg := tinyConfig()
	warmCfg.WarmStart = pre.Surrogate
	warm, err := runOnline(t, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runOnline(t, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.ValidationCurve) == 0 || len(cold.ValidationCurve) == 0 {
		t.Fatal("missing validation curves")
	}
	warmFirst := warm.ValidationCurve[0].MSE
	coldFirst := cold.ValidationCurve[0].MSE
	if warmFirst >= coldFirst {
		t.Fatalf("warm start gave no head start: warm %.5f vs cold %.5f", warmFirst, coldFirst)
	}
}

func TestTrainOfflineContextCancel(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainOffline(ctx, cfg, dir, 5, 2); err == nil {
		t.Fatal("expected cancellation error")
	}
}
