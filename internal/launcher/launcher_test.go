package launcher

import (
	"context"
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/opt"
	"melissa/internal/server"
	"melissa/internal/solver"
	"melissa/internal/testwait"
)

const (
	gridN  = 6
	steps  = 6
	nField = gridN * gridN
)

func testConfig(sims int, kind buffer.Kind) Config {
	norm := core.NewHeatNormalizer(nField, float64(steps)*0.01)
	return Config{
		Server: server.Config{
			Ranks:  1,
			Buffer: buffer.Config{Kind: kind, Capacity: 400, Threshold: 2, Seed: 3},
			Trainer: core.TrainerConfig{
				BatchSize:        4,
				Model:            core.ModelSpec{InputDim: norm.InputDim(), Hidden: []int{12}, OutputDim: norm.OutputDim(), Seed: 5},
				Normalizer:       norm,
				LearningRate:     1e-3,
				Schedule:         opt.Constant(1e-3),
				TrackOccurrences: true,
			},
		},
		NewSim: func(params []float64) (solver.Simulator, error) {
			p, err := solver.ParamsFromVector(params)
			if err != nil {
				return nil, err
			}
			return solver.New(solver.Config{N: gridN, Steps: steps, Dt: 0.01}, p)
		},
		Steps:                steps,
		Dt:                   0.01,
		Params:               heatParams(sims),
		MaxConcurrentClients: 2,
		MaxClientRetries:     3,
		MaxServerRestarts:    2,
	}
}

// heatParams is n distinct heat members' parameters (T_IC, T_x1, T_y1,
// T_x2, T_y2), all within the paper's [100, 500] K box.
func heatParams(n int) [][]float64 {
	params := make([][]float64, n)
	for i := range params {
		params[i] = []float64{300, 200 + 10*float64(i), 400, 250, 350 - 10*float64(i)}
	}
	return params
}

func TestLauncherValidation(t *testing.T) {
	cfg := testConfig(4, buffer.FIFOKind)
	cfg.Params = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for an empty ensemble")
	}
	cfg = testConfig(4, buffer.FIFOKind)
	cfg.NewSim = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for missing simulator factory")
	}
}

// runLauncher is l.Run under the suite's pipeline deadline: an ensemble
// that never terminates fails here with every goroutine's stack.
func runLauncher(t *testing.T, l *Launcher, ctx context.Context) (*Result, error) {
	t.Helper()
	return testwait.Run2(t, "Launcher.Run to return", func() (*Result, error) { return l.Run(ctx) })
}

func TestLauncherHappyPath(t *testing.T) {
	cfg := testConfig(5, buffer.FIFOKind)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientRestarts != 0 || res.ServerRestarts != 0 {
		t.Fatalf("unexpected restarts: %+v", res)
	}
	occ := res.Metrics.Occurrences()
	if len(occ) != 5*steps {
		t.Fatalf("unique samples %d, want %d", len(occ), 5*steps)
	}
	if res.Network == nil {
		t.Fatal("no trained network")
	}
}

// TestLauncherSlotsBoundConcurrentClients: a member starts only on a free
// slot and holds it until it returns. Every member parks in the JobHook
// until the test releases them, so no slot frees up; once the submitter
// itself waits for a slot, exactly MaxConcurrentClients members have been
// admitted. Released, the run trains every sample.
func TestLauncherSlotsBoundConcurrentClients(t *testing.T) {
	cfg := testConfig(5, buffer.FIFOKind)
	release := make(chan struct{})
	var admitted atomic.Int32
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		admitted.Add(1)
		<-release
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := l.Run(context.Background())
		done <- result{res, err}
	}()
	// The submitter also waits in a select, with no slot taken, until the
	// server ingests; a taken slot means it is past that one.
	testwait.Until(t, "the submitter to wait for a slot", func() bool {
		return len(l.slots) > 0 && submitterWaiting()
	})
	if n := len(l.slots); n != cfg.MaxConcurrentClients {
		t.Fatalf("%d slots taken while the submitter waits, want %d", n, cfg.MaxConcurrentClients)
	}
	testwait.Until(t, "the admitted clients to reach the hook", func() bool {
		return admitted.Load() == int32(cfg.MaxConcurrentClients)
	})
	close(release)
	r := testwait.Recv(t, done, "Launcher.Run to return")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := len(r.res.Metrics.Occurrences()); got != 5*steps {
		t.Fatalf("unique samples %d, want %d", got, 5*steps)
	}
	if n := admitted.Load(); n != 5 {
		t.Fatalf("%d clients admitted, want 5", n)
	}
}

// submitterWaiting reports whether submitClients is blocked in a select.
func submitterWaiting() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*Launcher).submitClients(") && strings.Contains(g, "[select") {
			return true
		}
	}
	return false
}

func TestLauncherRestartsFailedClients(t *testing.T) {
	cfg := testConfig(4, buffer.FIFOKind)
	// Sim 2 fails on its first two attempts, succeeds on the third.
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		if simID == 2 && attempt < 2 {
			job.FailAtStep = 3
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientRestarts != 2 {
		t.Fatalf("client restarts %d, want 2", res.ClientRestarts)
	}
	occ := res.Metrics.Occurrences()
	if len(occ) != 4*steps {
		t.Fatalf("unique samples %d, want %d (dedup across restarts)", len(occ), 4*steps)
	}
	for k, c := range occ {
		if c != 1 {
			t.Fatalf("sample %v trained %d times", k, c)
		}
	}
}

// TestLauncherRestartBackoff asserts the delay schedule between client
// restart attempts — exponential from the configured base, recorded per
// client in the metrics — using an injected sleep hook instead of
// wall-clock waits.
func TestLauncherRestartBackoff(t *testing.T) {
	cfg := testConfig(3, buffer.FIFOKind)
	cfg.MaxClientRetries = 3
	cfg.ClientRestartBackoff = 40 * time.Millisecond
	// Sim 1 fails on its first three attempts, succeeds on the fourth.
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		if simID == 1 && attempt < 3 {
			job.FailAtStep = 2
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slept []time.Duration
	l.sleep = func(ctx context.Context, d time.Duration) bool {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return true
	}
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientRestarts != 3 {
		t.Fatalf("client restarts %d, want 3", res.ClientRestarts)
	}
	want := []time.Duration{40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != len(want) {
		t.Fatalf("backoff sleeps %v, want %v", slept, want)
	}
	for i, d := range want {
		if slept[i] != d {
			t.Fatalf("backoff sleeps %v, want %v", slept, want)
		}
	}
	if got := res.Metrics.ClientRestarts(); len(got) != 1 || got[1] != 3 {
		t.Fatalf("per-client restart counts %v, want map[1:3]", got)
	}
}

// TestLauncherBackoffCapAndDisable pins the backoff schedule's edges: the
// doubling caps at maxClientBackoff, and a negative base disables delays.
func TestLauncherBackoffCapAndDisable(t *testing.T) {
	l := &Launcher{cfg: Config{ClientRestartBackoff: time.Second}}
	if got := l.restartBackoff(1); got != time.Second {
		t.Fatalf("attempt 1 backoff %v, want 1s", got)
	}
	if got := l.restartBackoff(10); got != maxClientBackoff {
		t.Fatalf("attempt 10 backoff %v, want cap %v", got, maxClientBackoff)
	}
	l = &Launcher{cfg: Config{}}
	if got := l.restartBackoff(1); got != defaultClientBackoff {
		t.Fatalf("default backoff %v, want %v", got, defaultClientBackoff)
	}
	l = &Launcher{cfg: Config{ClientRestartBackoff: -1}}
	if got := l.restartBackoff(3); got != 0 {
		t.Fatalf("disabled backoff %v, want 0", got)
	}
}

func TestLauncherWatchdogKillsHungClient(t *testing.T) {
	cfg := testConfig(2, buffer.FIFOKind)
	cfg.Server.WatchdogTimeout = 150 * time.Millisecond
	cfg.HeartbeatInterval = 0 // silence between steps
	// Sim 1 hangs (huge per-step delay) on attempt 0 only.
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		if simID == 1 && attempt == 0 {
			job.StepDelay = time.Hour
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := runLauncher(t, l, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientRestarts < 1 {
		t.Fatalf("expected at least one watchdog-driven restart, got %d", res.ClientRestarts)
	}
	if got := len(res.Metrics.Occurrences()); got != 2*steps {
		t.Fatalf("unique samples %d, want %d", got, 2*steps)
	}
}

func TestLauncherServerRecovery(t *testing.T) {
	cfg := testConfig(4, buffer.FIFOKind)
	cfg.Server.CheckpointDir = t.TempDir()
	cfg.Server.CheckpointEveryBatches = 1
	cfg.InjectServerFailureAfterBatches = 2
	// Pace the clients so trajectories are still in flight when the
	// injected crash fires: on a fast ingestion path an unpaced ensemble
	// can complete entirely before batch 2, leaving the recovered server
	// legitimately nothing to train and the test nothing to observe.
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		job.StepDelay = 5 * time.Millisecond
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRestarts != 1 {
		t.Fatalf("server restarts %d, want 1", res.ServerRestarts)
	}
	// The second instance must finish the ensemble; at-least-once training
	// across the crash boundary.
	occ := res.Metrics.Occurrences()
	keys := map[buffer.Key]bool{}
	for k := range occ {
		keys[k] = true
	}
	// The restored instance re-trains what was lost after the last
	// checkpoint; the final instance alone must still have seen the tail
	// of every simulation (completion implies all goodbyes arrived).
	if res.Metrics.Batches() == 0 {
		t.Fatal("no training on recovered server")
	}
	if len(keys) == 0 {
		t.Fatal("no samples trained on recovered server")
	}
}

// TestLauncherRestartRerunsOnlyIncomplete: a replacement server resumes
// from the checkpoint its Run finds, and the launcher re-runs only the
// simulations that checkpoint does not show complete. Simulation 0 streams
// at once, the other two crawl, so the batch-2 checkpoint the crash leaves
// holds simulation 0's whole trajectory and its Goodbye and neither of the
// others'.
func TestLauncherRestartRerunsOnlyIncomplete(t *testing.T) {
	cfg := testConfig(3, buffer.FIFOKind)
	cfg.MaxConcurrentClients = 3
	cfg.Server.CheckpointDir = t.TempDir()
	cfg.Server.CheckpointEveryBatches = 1
	cfg.InjectServerFailureAfterBatches = 2
	var mu sync.Mutex
	runs := map[int]int{}
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		mu.Lock()
		runs[simID]++
		mu.Unlock()
		if simID > 0 {
			job.StepDelay = 40 * time.Millisecond
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLauncher(t, l, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRestarts != 1 {
		t.Fatalf("server restarts %d, want 1", res.ServerRestarts)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[int]int{0: 1, 1: 2, 2: 2}; !maps.Equal(runs, want) {
		t.Fatalf("runs per simulation %v, want %v: only the incomplete ones re-run", runs, want)
	}
}

func TestLauncherRespectsContextCancel(t *testing.T) {
	cfg := testConfig(3, buffer.FIFOKind)
	// Every client parks before its first send; the cancel lands once one
	// of them is running, so there is always an ensemble left to cancel.
	started := make(chan struct{}, 1)
	cfg.JobHook = func(simID, attempt int, job *client.Job) {
		job.StepDelay = time.Hour
		select {
		case started <- struct{}{}:
		default:
		}
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	if _, err := runLauncher(t, l, ctx); err == nil {
		t.Fatal("expected cancellation error")
	}
}
