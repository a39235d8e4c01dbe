package core

// Regression tests for the learning-rate schedule's sample count: every
// rank, global rank 0 included, schedules from its own count of the group's
// samples, never from the metrics collector it records into. The elastic
// server hands every epoch's trainer the same collector, so after a
// re-formation before the first checkpoint the collector still holds the
// aborted epoch's count while the fresh trainer restarts from the seed.

import (
	"context"
	"testing"

	"melissa/internal/opt"
	"melissa/internal/transport"
)

// inheritedMetrics is a collector that already counted 1,000 samples.
func inheritedMetrics() *Metrics {
	m := NewMetrics(false)
	m.RecordStep(1000)
	return m
}

// TestScheduleIgnoresInheritedMetrics: a 2-rank trainer handed a collector
// that already counted samples trains exactly the weights it trains with a
// fresh one, and still records its steps into the collector.
func TestScheduleIgnoresInheritedMetrics(t *testing.T) {
	train := func(m *Metrics) (*Trainer, []float32) {
		tr := prefilledTrainer(t, 2, 480, true, func(c *TrainerConfig) {
			c.Metrics = m
			c.Schedule = opt.Halving{Initial: 1e-3, EverySamples: 50}
		})
		if err := runTrainer(t, tr, context.Background()); err != nil {
			t.Fatal(err)
		}
		return tr, append([]float32(nil), tr.Network().FlatParams()...)
	}
	fresh, want := train(nil)
	inherited, got := train(inheritedMetrics())
	diff := 0
	for i := range want {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d weights differ from the run with a fresh collector", diff, len(want))
	}
	if b, wantB := inherited.Metrics().Batches(), 1+fresh.Metrics().Batches(); b != wantB {
		t.Fatalf("inherited collector counts %d batches, want %d", b, wantB)
	}
}

// TestReplicasAgreeWithInheritedMetrics: two processes of one rank each over
// a loopback fp32 ring, each handed a collector that already counted
// samples, end with identical replicas.
func TestReplicasAgreeWithInheritedMetrics(t *testing.T) {
	norm := NewHeatNormalizer(48, 1)
	spec := ModelSpec{InputDim: norm.InputDim(), Hidden: []int{24, 24}, OutputDim: norm.OutputDim(), Seed: 13}
	bufs := fifoRankBufs(t, norm, 2, 87)
	trainers := codecTrainerGroup(t, 2, 1, transport.CodecF32, SyncOverlap, bufs, spec, norm, func(c *TrainerConfig) {
		c.Metrics = inheritedMetrics()
		c.Schedule = opt.Halving{Initial: 1e-3, EverySamples: 20}
	})
	runTrainerGroup(t, trainers)
	a, b := trainers[0].Network().FlatParams(), trainers[1].Network().FlatParams()
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d weights differ between the two processes' replicas", diff, len(a))
	}
}
