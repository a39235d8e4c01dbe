package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"melissa/internal/buffer"
	"melissa/internal/ddp"
	"melissa/internal/opt"
	"melissa/internal/telemetry"
	"melissa/internal/testbuf"
	"melissa/internal/transport"
)

// prefilledTrainer builds a ranks-wide trainer (hidden 64×48, batch 10) over
// Reservoirs that already hold their share of count fixed samples. With
// ended set reception is over, so Run drains them and is a pure function of
// the configuration; otherwise the Reservoirs recirculate and only a fault
// ends the run.
func prefilledTrainer(t *testing.T, ranks, count int, ended bool, mutate ...func(*TrainerConfig)) *Trainer {
	t.Helper()
	var norm Normalizer = NewHeatNormalizer(32, 1)
	bufs := make([]*buffer.Blocking, ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewReservoir(512, 0, uint64(21+r)), norm.InputDim(), norm.OutputDim())
	}
	for i, s := range hotPathSamples(NewHeatNormalizer(32, 1), count) {
		testbuf.Put(t, bufs[i%ranks], s)
	}
	if ended {
		for _, b := range bufs {
			b.EndReception()
		}
	}
	cfg := TrainerConfig{
		Ranks: ranks, BatchSize: 10, Normalizer: norm,
		Model: ModelSpec{InputDim: norm.InputDim(), Hidden: []int{64, 48}, OutputDim: norm.OutputDim(), Seed: 11},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	tr, err := NewTrainer(cfg, bufs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkSharedState fails unless every local rank of tr trains on rank 0's
// value slab and moments and on a gradient slab of its own. The moments are
// visible only through SaveState, so the check writes them — one probe step
// through rank 0's handle must show in every other handle's saved state —
// and tr is good for nothing afterwards.
func checkSharedState(t *testing.T, tr *Trainer, when string) {
	t.Helper()
	saved := func(a *opt.Adam) []byte {
		var b bytes.Buffer
		if err := a.SaveState(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()[16:] // past the step counter: m, v
	}
	n := tr.Network().NumParams()
	before := make([][]byte, len(tr.opts))
	for r, a := range tr.opts {
		before[r] = saved(a)
	}
	probe := make([]float32, n)
	for i := range probe {
		probe[i] = 1
	}
	tr.opts[0].StepFlat(make([]float32, n), probe)
	for r := 1; r < len(tr.nets); r++ {
		if &tr.nets[r].FlatParams()[0] != &tr.Network().FlatParams()[0] {
			t.Fatalf("%s: rank %d trains on a value slab of its own", when, r)
		}
		if after := saved(tr.opts[r]); len(after) != 8*n || bytes.Equal(after, before[r]) || !bytes.Equal(after, saved(tr.opts[0])) {
			t.Fatalf("%s: rank %d has moments of its own", when, r)
		}
		for o := 0; o < r; o++ {
			if &tr.nets[r].FlatGrads()[0] == &tr.nets[o].FlatGrads()[0] {
				t.Fatalf("%s: ranks %d and %d share a gradient slab", when, o, r)
			}
		}
	}
}

// TestLocalRanksShareOneSlab: the ranks of one process train on one value
// slab and one pair of moments, each with a gradient slab of its own — as
// built, and again after a restore — and what a run leaves there survives
// capture → restore into a fresh trainer → capture unchanged.
func TestLocalRanksShareOneSlab(t *testing.T) {
	const ranks = 3
	checkSharedState(t, prefilledTrainer(t, ranks, 0, true), "as built")
	tr := prefilledTrainer(t, ranks, 480, true)
	if err := runTrainer(t, tr, context.Background()); err != nil {
		t.Fatal(err)
	}
	w, o, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	// Every handle counted the same steps: the state any of them would
	// save is the one CaptureState took from handle 0.
	for r := 1; r < ranks; r++ {
		var got bytes.Buffer
		if err := tr.opts[r].SaveState(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), o) {
			t.Fatalf("rank %d's optimizer handle disagrees with rank 0's", r)
		}
	}
	batches, samples := tr.Metrics().Telemetry().Value(telemetry.Batches), tr.Metrics().Telemetry().Value(telemetry.Samples)
	if batches == 0 {
		t.Fatal("the run trained nothing")
	}

	fresh := prefilledTrainer(t, ranks, 0, true)
	if err := fresh.RestoreState(w, o, batches, samples); err != nil {
		t.Fatal(err)
	}
	w2, o2, err := fresh.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, w2) || !bytes.Equal(o, o2) {
		t.Fatal("capture → restore → capture changed the state")
	}
	checkSharedState(t, fresh, "after RestoreState")
	checkSharedState(t, tr, "after the run")
}

// TestRestoreStateAllOrNothing: a checkpoint whose weights fit the model and
// whose moments do not is refused, and the refusal leaves the trainer as it
// was — neither block installed, the moments still shared.
func TestRestoreStateAllOrNothing(t *testing.T) {
	donor := prefilledTrainer(t, 2, 200, true)
	if err := runTrainer(t, donor, context.Background()); err != nil {
		t.Fatal(err)
	}
	w, _, err := donor.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	other := opt.NewAdam(1e-3)
	other.StepFlat(make([]float32, 77), make([]float32, 77))
	var misfit bytes.Buffer
	if err := other.SaveState(&misfit); err != nil {
		t.Fatal(err)
	}

	tr := prefilledTrainer(t, 2, 0, true)
	w0, o0, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	err = tr.RestoreState(w, misfit.Bytes(), 20, 200)
	if err == nil {
		t.Fatal("RestoreState accepted moments that do not fit the model")
	}
	if want := "core: optimizer state has 77 floats, model has"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want one starting %q", err, want)
	}
	// Bad weights after good moments: same outcome.
	if err := tr.RestoreState(w[:len(w)-8], o0, 20, 200); err == nil {
		t.Fatal("RestoreState accepted truncated weights")
	}
	w1, o1, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w0, w1) || !bytes.Equal(o0, o1) {
		t.Fatal("a refused restore changed the trainer")
	}
	if tr.startBatches != 0 || tr.Metrics().Telemetry().Value(telemetry.Batches) != 0 {
		t.Fatal("a refused restore moved the counters")
	}
	checkSharedState(t, tr, "after a refused restore")
}

// TestBarrierBrokenByFailedRank: a rank that leaves its step with an error
// never reaches the step barrier (the communicator's Meet), but the failed
// collective poisoned the communicator, and that breaks it — everyone
// parked there and everyone who arrives later gets the error instead of a
// wait for a rank that will not come. The barrier itself is pinned by the
// test of the same name in ddp.
func TestBarrierBrokenByFailedRank(t *testing.T) {
	// End to end: a 3-rank run that nothing else would end has its
	// communicator aborted at a step and on a rank the seed picks — from
	// inside the step hook (the siblings are past that step's barrier, parked
	// in the next status all-reduce), or a seeded number of yields later from
	// a free goroutine (anywhere in a later step, including after one rank's
	// last collective has returned and before another's has). Whichever rank
	// fails first, Run must come back with the abort; it returns only when
	// every rank goroutine has, so nobody is left at the barrier.
	t.Run("run", func(t *testing.T) {
		runs := 100
		if testing.Short() {
			runs = 10
		}
		rng := rand.New(rand.NewPCG(transport.ChaosSeed(42), 23))
		for i := 0; i < runs; i++ {
			const ranks = 3
			atStep, onRank, yields := 1+rng.IntN(12), rng.IntN(ranks), rng.IntN(400)
			comm := ddp.NewCommunicator(ranks)
			var aborter sync.WaitGroup
			tr := prefilledTrainer(t, ranks, 480, false, func(c *TrainerConfig) {
				c.Comm = comm
				c.OnLocalBatchEnd = func(rank, batches int) {
					switch {
					case rank != onRank || batches != atStep:
					case i%2 == 0:
						comm.Abort()
					default:
						aborter.Add(1)
						go func() {
							defer aborter.Done()
							for y := 0; y < yields; y++ {
								runtime.Gosched()
							}
							comm.Abort()
						}()
					}
				}
			})
			err := runTrainer(t, tr, context.Background())
			aborter.Wait()
			if !errors.Is(err, transport.ErrRingAborted) {
				t.Fatalf("run %d (abort from rank %d at step %d, %d yields): Run returned %v, want an error wrapping ErrRingAborted", i, onRank, atStep, yields, err)
			}
		}
	})
}
