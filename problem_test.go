package melissa

import (
	"context"
	"math"
	"strings"
	"testing"
)

// tinyGrayScottConfig is the Gray–Scott counterpart of tinyConfig: an
// ensemble small enough for CI but exercising the full online pipeline.
func tinyGrayScottConfig() Config {
	cfg := DefaultConfig()
	cfg.Problem = GrayScott()
	cfg.Simulations = 5
	cfg.GridN = 8
	cfg.StepsPerSim = 6
	cfg.Dt = 1 // lattice units; explicitly stable for the sampled diffusivities
	cfg.MaxConcurrentClients = 3
	cfg.Hidden = []int{16}
	cfg.BatchSize = 4
	cfg.Capacity = 100
	cfg.Threshold = 8
	cfg.ValidationSims = 1
	// Validate every few batches: the tiny ensemble drains in ~8 batches
	// once reception ends, and on a fast ingestion path the Reservoir's
	// keep-busy repetition window can be short enough that a sparser
	// cadence records no validation point at all.
	cfg.ValidateEvery = 3
	return cfg
}

func TestProblemRegistry(t *testing.T) {
	names := Problems()
	for _, want := range []string{HeatName, GrayScottName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("problem %q not registered (have %v)", want, names)
		}
	}
	if _, err := ProblemByName("no-such-problem"); err == nil {
		t.Fatal("expected error for unknown problem")
	}
	prob, err := ProblemByName(GrayScottName)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Name() != GrayScottName {
		t.Fatalf("lookup returned %q", prob.Name())
	}
	min, max := prob.ParamBounds()
	if len(min) != len(prob.ParamNames()) || len(max) != len(min) {
		t.Fatalf("bounds %d/%d for %d parameters", len(min), len(max), len(prob.ParamNames()))
	}
}

func TestProblemFieldGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridN = 8
	if dim := fieldDim(Heat(), cfg); dim != 64 {
		t.Fatalf("heat field dim %d, want 64", dim)
	}
	if dim := fieldDim(GrayScott(), cfg); dim != 128 {
		t.Fatalf("gray-scott field dim %d, want 128", dim)
	}
	if got := GrayScott().Normalizer(cfg).OutputDim(); got != 128 {
		t.Fatalf("gray-scott normalizer output %d, want 128", got)
	}
}

// TestGrayScottOnlineEndToEnd is the acceptance test for the plugin API: a
// second PDE trains through RunOnline with no heat-specific types anywhere
// in the call path.
func TestGrayScottOnlineEndToEnd(t *testing.T) {
	cfg := tinyGrayScottConfig()
	res, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate == nil {
		t.Fatal("no surrogate")
	}
	want := cfg.Simulations * cfg.StepsPerSim
	if res.UniqueSamples != want {
		t.Fatalf("unique %d, want %d", res.UniqueSamples, want)
	}
	if res.ValidationMSE <= 0 {
		t.Fatal("no validation recorded")
	}
	if res.Surrogate.OutputDim() != 2*cfg.GridN*cfg.GridN {
		t.Fatalf("output dim %d, want %d", res.Surrogate.OutputDim(), 2*cfg.GridN*cfg.GridN)
	}
	if res.Surrogate.ParamDim() != 4 {
		t.Fatalf("param dim %d, want 4", res.Surrogate.ParamDim())
	}

	// Predict both concentration channels at an unseen parameter point.
	params := []float64{0.035, 0.055, 0.15, 0.07}
	field := res.Surrogate.Predict(params, float64(cfg.StepsPerSim)*cfg.Dt)
	if len(field) != 2*cfg.GridN*cfg.GridN {
		t.Fatalf("field length %d", len(field))
	}
	for _, v := range field {
		if math.IsNaN(v) || v < -1 || v > 2 {
			t.Fatalf("implausible concentration %v", v)
		}
	}
}

func TestGrayScottOfflinePipeline(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyGrayScottConfig()
	info, err := GenerateDataset(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Samples != cfg.Simulations*cfg.StepsPerSim {
		t.Fatalf("samples %d", info.Samples)
	}
	res, err := TrainOffline(context.Background(), cfg, dir, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate.Meta().Problem != GrayScottName {
		t.Fatalf("offline surrogate labeled %q", res.Surrogate.Meta().Problem)
	}
	if res.Samples != 2*info.Samples {
		t.Fatalf("trained %d samples, want %d", res.Samples, 2*info.Samples)
	}
}

// TestTrainOfflineRejectsMismatchedDataset: a dataset generated for one
// problem must not silently train (or panic) under another problem's
// geometry.
func TestTrainOfflineRejectsMismatchedDataset(t *testing.T) {
	dir := t.TempDir()
	heatCfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), heatCfg, dir); err != nil {
		t.Fatal(err)
	}
	gsCfg := tinyGrayScottConfig()
	_, err := TrainOffline(context.Background(), gsCfg, dir, 1, 1)
	if err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
	if !strings.Contains(err.Error(), "expects") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestSimulateMatchesProblemSolver(t *testing.T) {
	cfg := tinyGrayScottConfig()
	params := []float64{0.04, 0.06, 0.16, 0.08}
	fields, err := Simulate(GrayScott(), cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != cfg.StepsPerSim || len(fields[0]) != 2*cfg.GridN*cfg.GridN {
		t.Fatalf("shape %d × %d", len(fields), len(fields[0]))
	}
	if _, err := Simulate(GrayScott(), cfg, []float64{1}); err == nil {
		t.Fatal("expected parameter-dimension error")
	}
}

// TestCustomSamplerDimensionError locks in the satellite fix: a custom
// sampler returning the wrong dimensionality surfaces as an error from
// RunOnline instead of a panic, before any member or validation solve, and
// from MemberParams.
func TestCustomSamplerDimensionError(t *testing.T) {
	cfg := tinyConfig()
	prob := &gatedProblem{Problem: Heat()} // counts the simulators built
	cfg.Problem = prob
	cfg.Sampler = func() []float64 { return []float64{0.5, 0.5, 0.5} } // heat wants 5
	_, err := runOnline(t, cfg)
	if err == nil {
		t.Fatal("expected dimension error")
	}
	if !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if n := prob.built.Load(); n != 0 {
		t.Fatalf("%d simulators built before the bad design point was refused", n)
	}
	if _, err := MemberParams(cfg, 2); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("MemberParams: %v, want a dimension error", err)
	}
}
