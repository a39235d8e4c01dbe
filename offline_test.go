package melissa

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/dataset"
	"melissa/internal/sampling"
	"melissa/internal/testwait"
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

// TestGenerateDatasetRefusesStaleDir: a directory that already holds
// simulation files is refused before any member runs, so the dataset
// GenerateDataset reports and TrainOffline trains is only ever the members
// of one call.
func TestGenerateDatasetRefusesStaleDir(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Simulations = 5
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	// An open gate: it only counts the members built.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	counting := &gatedProblem{Problem: Heat(), ctx: done, release: make(chan struct{})}
	close(counting.release)
	cfg.Problem = counting
	cfg.Simulations = 3
	info, err := GenerateDataset(context.Background(), cfg, dir)
	if err == nil {
		t.Fatalf("generated %+v into a directory holding 5 members", info)
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "5 simulation files") {
		t.Fatalf("error %q does not name %s and its 5 files", err, dir)
	}
	if n := counting.built.Load(); n != 0 {
		t.Fatalf("%d members ran before the refusal", n)
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

// gatedProblem holds every member at its first step until ctx is done and
// at each later step until release is closed. It counts the members it
// built, those waiting at their first step and the steps taken.
type gatedProblem struct {
	Problem
	ctx                   context.Context
	release               chan struct{}
	built, waiting, steps atomic.Int64
}

func (p *gatedProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	sim, err := p.Problem.NewSimulator(cfg, params)
	if err != nil {
		return nil, err
	}
	p.built.Add(1)
	return &gatedSim{Simulator: sim, p: p}, nil
}

type gatedSim struct {
	Simulator
	p *gatedProblem
}

func (s *gatedSim) StepOnce() error {
	if s.StepIndex() == 0 {
		s.p.waiting.Add(1)
		<-s.p.ctx.Done()
	} else {
		<-s.p.release
	}
	s.p.steps.Add(1)
	return s.Simulator.StepOnce()
}

// TestGenerateDatasetCancelWaitsForMembers: a cancelled generation starts no
// further member and returns only once the started ones have stopped — none
// of them takes a step after the call has returned.
func TestGenerateDatasetCancelWaitsForMembers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := &gatedProblem{Problem: Heat(), ctx: ctx, release: make(chan struct{})}
	cfg := tinyConfig()
	cfg.Problem = gate
	cfg.Simulations, cfg.MaxConcurrentClients = 4, 2
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := GenerateDataset(ctx, cfg, dir)
		done <- err
	}()
	testwait.Until(t, "two members at their first step", func() bool { return gate.waiting.Load() == 2 })
	cancel()
	err := testwait.Recv(t, done, "the cancelled generation to return")
	stepsAtReturn := gate.steps.Load()
	close(gate.release)
	testwait.Until(t, "the member goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("generation returned %v, want context.Canceled", err)
	}
	if n := gate.steps.Load() - stepsAtReturn; n != 0 {
		t.Fatalf("members took %d steps after the generation returned", n)
	}
	if n := gate.built.Load(); n != 2 {
		t.Fatalf("%d members built, want the 2 started before the cancel", n)
	}
}

// TestGenerateDatasetHonoursDesign: the dataset's parameters come from
// Config.Design, and a sampler point of the wrong dimension is an error.
func TestGenerateDatasetHonoursDesign(t *testing.T) {
	cfg := tinyConfig()
	cfg.Design = "halton"
	dir := t.TempDir()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	r, err := dataset.Open(dataset.FilePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := r.ReadStep(1)
	if err != nil {
		t.Fatal(err)
	}
	space, err := problemSpace(Heat())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range space.Scale(sampling.NewHalton(space.Dim()).Next()) {
		if s.Input[i] != float32(v) {
			t.Fatalf("sim 0 parameter %d is %g, want Halton's first point %g", i, s.Input[i], float32(v))
		}
	}

	// The first draw has the right dimension, the second does not.
	draws := 0
	cfg.Sampler = func() []float64 {
		draws++
		if draws == 1 {
			return make([]float64, space.Dim())
		}
		return make([]float64, space.Dim()-1)
	}
	if _, err := GenerateDataset(context.Background(), cfg, t.TempDir()); err == nil {
		t.Fatal("a short design point was accepted")
	}
}

// TestTrainOfflineFixedSeedHash pins a one-rank offline run bit for bit:
// weights, validation curve and training curve.
func TestTrainOfflineFixedSeedHash(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	res, err := TrainOffline(context.Background(), cfg, dir, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := res.Surrogate.Save(&weights); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(weights.Bytes())
	for _, curve := range [][]Point{res.ValidationCurve, res.TrainCurve} {
		for _, p := range curve {
			fmt.Fprintf(h, "%d %d %x\n", p.Batch, p.Samples, math.Float64bits(p.MSE))
		}
	}
	const want = "ce554ba907b8729ee3d1225c2de2071c1f5fd32f03cd75842923612837895e06"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("offline run hash %s, want %s", got, want)
	}
}

// TestTrainOfflineRanksConserveSamples: at two ranks every sample is still
// trained on once per epoch, whether or not the batch divides the dataset.
// At B=5 each epoch ends on an uneven tail batch; eight epochs is past the
// point where dealing each epoch from rank 0 again filled rank 0's FIFO
// while rank 1 waited for a whole batch, and the run hung.
func TestTrainOfflineRanksConserveSamples(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	n := cfg.Simulations * cfg.StepsPerSim
	for _, c := range []struct{ batch, epochs int }{{4, 3}, {5, 3}, {5, 8}} {
		cfg.Ranks, cfg.BatchSize = 2, c.batch
		res, err := testwait.Run2(t, "the two-rank offline run", func() (*RunResult, error) {
			return TrainOffline(context.Background(), cfg, dir, c.epochs, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples != c.epochs*n || res.UniqueSamples != n {
			t.Fatalf("B=%d, %d epochs: %d samples, %d unique; want %d and %d", c.batch, c.epochs, res.Samples, res.UniqueSamples, c.epochs*n, n)
		}
		// The all-reduced per-rank gradients equal the concatenated
		// batch's in exact arithmetic only.
		if want := 0.211435662; c.batch == 4 && math.Abs(res.ValidationMSE-want) > 1e-6*want {
			t.Fatalf("B=4: validation MSE %.9f, want %.9f", res.ValidationMSE, want)
		}
	}
}

// TestTrainOfflineRejectsMixedGeometry: a file whose samples do not have
// the first file's geometry fails the run instead of being skipped.
func TestTrainOfflineRejectsMixedGeometry(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	w, err := dataset.Create(dir, 99, 1, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(make([]float32, 6), make([]float32, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOffline(context.Background(), cfg, dir, 1, 2); err == nil {
		t.Fatal("a mis-sized sample was skipped silently")
	}
}

// TestTrainOfflineCancelMidRun: a run cancelled while training returns the
// cancellation, and the loader's workers and the producer parked on a full
// buffer all exit.
func TestTrainOfflineCancelMidRun(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, err := GenerateDataset(context.Background(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	_, err := testwait.Run2(t, "the cancelled offline run", func() (*RunResult, error) {
		return TrainOffline(ctx, cfg, dir, 1_000_000, 2)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainOffline returned %v, want context.Canceled", err)
	}
	testwait.Until(t, "the loader and producer goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}
