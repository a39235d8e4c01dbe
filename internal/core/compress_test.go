package core

// Training-trajectory tests for compressed gradient collectives (the
// ring's transport.RingOptions.Codec): f16 runs must stay within tolerance
// of the exact fp32 trajectory across process × local-rank shapes, repeat
// runs must be bit-identical (the codec is deterministic), the f16
// trajectory keeps its pinned digest, and a trainer must refuse a
// communicator that does not host its ranks.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/ddp"
	"melissa/internal/transport"
)

// codecTrainerGroup builds one trainer per process over a loopback ring
// with the given wire codec: procs processes hosting local ranks each.
// bufs holds procs·local buffers, assigned in global rank order; mutate
// runs on every process's config.
func codecTrainerGroup(t testing.TB, procs, local int, codec transport.Codec,
	bufs []*buffer.Blocking, spec ModelSpec, norm Normalizer, mutate ...func(*TrainerConfig)) []*Trainer {
	t.Helper()
	listeners := make([]*transport.RingListener, procs)
	addrs := make([]string, procs)
	for p := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p] = l
		addrs[p] = l.Addr()
	}
	comms := make([]*ddp.Comm, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := range comms {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			ring, err := listeners[proc].ConnectContext(context.Background(), proc, addrs, 10*time.Second,
				transport.RingOptions{Identity: ddp.GroupIdentity(local), Codec: codec})
			if err != nil {
				errs[proc] = err
				return
			}
			comms[proc] = ddp.NewHierComm(ring, local)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	trainers := make([]*Trainer, procs)
	for p := range trainers {
		cfg := TrainerConfig{
			Ranks:      local,
			Comm:       comms[p],
			BatchSize:  5,
			Model:      spec,
			Normalizer: norm,
		}
		for _, m := range mutate {
			m(&cfg)
		}
		tr, err := NewTrainer(cfg, bufs[p*local:(p+1)*local])
		if err != nil {
			t.Fatal(err)
		}
		trainers[p] = tr
	}
	return trainers
}

// runTrainerGroup runs every process's trainer in lockstep and returns the
// global rank-0 loss trajectory and final weights.
func runTrainerGroup(t *testing.T, trainers []*Trainer) ([]LossPoint, []float32) {
	t.Helper()
	errs := make([]error, len(trainers))
	var wg sync.WaitGroup
	for p, tr := range trainers {
		wg.Add(1)
		go func(proc int, tr *Trainer) {
			defer wg.Done()
			errs[proc] = tr.Run(context.Background())
		}(p, tr)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	weights := append([]float32(nil), trainers[0].Network().FlatParams()...)
	return trainers[0].Metrics().TrainLoss(), weights
}

// runCodecShape trains the given shape and codec over the same model and
// stream as runInProcess — so its output is directly comparable to the
// in-process channel reference — and returns trajectory + final weights.
func runCodecShape(t *testing.T, procs, local int, codec transport.Codec) ([]LossPoint, []float32) {
	t.Helper()
	norm := NewHeatNormalizer(48, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{24, 24}, OutputDim: norm.OutputDim(), Seed: 13}
	bufs := fifoRankBufs(t, norm, procs*local, 87)
	trainers := codecTrainerGroup(t, procs, local, codec, bufs, spec, norm)
	return runTrainerGroup(t, trainers)
}

// weightDelta is the RMS difference between two weight vectors.
func weightDelta(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}

// TestTrainCompressedMatrix runs f16 training across flat-TCP and
// hierarchical shapes against the exact in-process fp32 reference: the
// compressed trajectory must track the exact one within a quantization
// tolerance at every step, and the fp32 transport run must match the
// channel reference bit-for-bit (compression off is exactly off).
func TestTrainCompressedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shape training matrix")
	}
	type shape struct{ procs, local int }
	for _, sh := range []shape{{2, 1}, {4, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("procs=%d/local=%d", sh.procs, sh.local), func(t *testing.T) {
			refLoss, refW := runInProcess(t, sh.procs*sh.local)

			f32Loss, f32W := runCodecShape(t, sh.procs, sh.local, transport.CodecF32)
			if len(f32Loss) != len(refLoss) {
				t.Fatalf("fp32 trajectory length %d, reference %d", len(f32Loss), len(refLoss))
			}
			for i := range refLoss {
				if f32Loss[i].Value != refLoss[i].Value {
					t.Fatalf("fp32 step %d: loss %v, reference %v", i, f32Loss[i].Value, refLoss[i].Value)
				}
			}
			for i := range refW {
				if f32W[i] != refW[i] {
					t.Fatalf("fp32 weight %d: %v, reference %v", i, f32W[i], refW[i])
				}
			}

			f16Loss, f16W := runCodecShape(t, sh.procs, sh.local, transport.CodecF16)
			if len(f16Loss) != len(refLoss) {
				t.Fatalf("f16 trajectory length %d, reference %d", len(f16Loss), len(refLoss))
			}
			for i := range refLoss {
				d := math.Abs(f16Loss[i].Value - refLoss[i].Value)
				tol := 2e-2 * (1 + refLoss[i].Value)
				if d > tol {
					t.Fatalf("f16 step %d: loss %v vs exact %v (diff %v > tol %v)",
						i, f16Loss[i].Value, refLoss[i].Value, d, tol)
				}
			}
			if rms := weightDelta(f16W, refW); rms > 2e-3 {
				t.Fatalf("f16 final weights drifted RMS %v from exact", rms)
			}
		})
	}
}

// TestTrainCompressedDeterminism pins reproducibility: two fresh f16 runs
// with identical configuration and streams produce bit-identical
// trajectories and weights — the codec is deterministic, so compression
// never costs repeatability.
func TestTrainCompressedDeterminism(t *testing.T) {
	loss1, w1 := runCodecShape(t, 2, 2, transport.CodecF16)
	loss2, w2 := runCodecShape(t, 2, 2, transport.CodecF16)
	if len(loss1) == 0 || len(loss1) != len(loss2) {
		t.Fatalf("trajectory lengths %d vs %d", len(loss1), len(loss2))
	}
	for i := range loss1 {
		if loss1[i].Value != loss2[i].Value {
			t.Fatalf("step %d: run1 loss %v, run2 %v", i, loss1[i].Value, loss2[i].Value)
		}
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d: run1 %v, run2 %v", i, w1[i], w2[i])
		}
	}
}

// TestTrainCompressedOverlapMatchesSerial pins the f16 trajectory of 2
// ranks, one per process: sha256 of its losses' and its final weights'
// little-endian bits. Every rank issues its bucket collectives in one
// order over error-feedback residuals indexed by slab offset, so the bits
// do not depend on when, or in which order, the buckets are all-reduced.
func TestTrainCompressedOverlapMatchesSerial(t *testing.T) {
	const wantLoss = "1c3d173ffc7975453473c1e6804ed6222bc747e7958509714fe4dc9d7b3cfa92"
	const wantWeights = "588195984d7cefa8d37b42c17c5d66d7af7424233fadf44b1f5c014c137e48ef"
	loss, weights := runCodecShape(t, 2, 1, transport.CodecF16)
	var lossBytes, weightBytes []byte
	for _, p := range loss {
		lossBytes = binary.LittleEndian.AppendUint64(lossBytes, math.Float64bits(p.Value))
	}
	for _, w := range weights {
		weightBytes = binary.LittleEndian.AppendUint32(weightBytes, math.Float32bits(w))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(lossBytes)); len(loss) != 9 || got != wantLoss {
		t.Errorf("%d losses, digest %s; want 9, %s", len(loss), got, wantLoss)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(weightBytes)); got != wantWeights {
		t.Errorf("weights digest %s, want %s", got, wantWeights)
	}
}

// TestTrainCompressedErrorFeedback pins that error-fed f16 does not harm
// training: on the same stream its final weights stay within the matrix
// tolerance of the exact run. The quantitative EF-beats-raw gate lives in
// the ddp-level test with fixed adversarial gradients.
func TestTrainCompressedErrorFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("two full training runs")
	}
	_, refW := runInProcess(t, 2)
	_, efW := runCodecShape(t, 2, 1, transport.CodecF16)
	efErr := weightDelta(efW, refW)
	t.Logf("final-weight RMS vs exact: ef=%.3g", efErr)
	if efErr > 2e-3 {
		t.Fatalf("error-fed f16 run drifted beyond tolerance: %v", efErr)
	}
}

// TestCommSpanMatchesRanks pins the fail-fast contract: a trainer refuses
// a communicator that does not host exactly its local ranks.
func TestCommSpanMatchesRanks(t *testing.T) {
	norm := NewHeatNormalizer(32, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{16}, OutputDim: norm.OutputDim(), Seed: 23}
	mk := func(comm *ddp.Comm) error {
		_, err := NewTrainer(TrainerConfig{
			Ranks: 2, Comm: comm, BatchSize: 5, Model: spec, Normalizer: norm,
		}, fifoRankBufs(t, norm, 2, 10))
		return err
	}
	if err := mk(ddp.NewCommunicator(3)); err == nil {
		t.Fatal("a 3-rank communicator was accepted for 2 local ranks")
	}
	if err := mk(ddp.NewCommunicator(2)); err != nil {
		t.Fatalf("a 2-rank communicator was refused for 2 local ranks: %v", err)
	}
}
