package core

import (
	"context"
	"errors"
	"testing"

	"melissa/internal/testwait"
)

// runFed is RunFed under the suite's pipeline deadline.
func runFed(t *testing.T, ctx context.Context, cfg TrainerConfig, produce func(*Feeder) error) (*Trainer, error) {
	t.Helper()
	return testwait.Run2(t, "RunFed to return", func() (*Trainer, error) { return RunFed(ctx, cfg, produce) })
}

// TestRunFedProducerError: a producer that fails ends reception, the
// trainer drains what it was given, and the producer's error is returned.
func TestRunFedProducerError(t *testing.T) {
	boom := errors.New("loader failed")
	_, err := runFed(t, context.Background(), testConfig(2), func(f *Feeder) error {
		if err := f.Deal(synthSamples(13, 1)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunFed returned %v, want the producer's error", err)
	}
}

// TestRunFedCancelReleasesParkedProducer: a run cancelled while its
// producer waits on a full buffer returns the cancellation, and the
// producer is released (its Put refused) instead of waiting forever.
func TestRunFedCancelReleasesParkedProducer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan *Feeder, 1)
	released := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunFed(ctx, testConfig(2), func(f *Feeder) error {
			defer close(released)
			parked <- f
			// Rank 1 never gets a sample, so the group never steps and
			// rank 0's buffer fills.
			for _, s := range synthSamples(100, 2) {
				if !f.Put(0, s) {
					return errors.New("refused after the run")
				}
			}
			return nil
		})
		done <- err
	}()
	f := testwait.Recv(t, parked, "the producer to start")
	testwait.Until(t, "the producer to park on a full buffer", func() bool {
		producers, _ := f.bufs[0].Parked()
		return producers == 1
	})
	cancel()
	if err := testwait.Recv(t, done, "RunFed to return after the cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFed returned %v, want the cancellation before the producer's refusal", err)
	}
	testwait.Recv(t, released, "the producer to return")
}

// TestRunFedRankEndedEarly: a rank whose reception ends on a short batch
// trains it and sits out the remaining steps while the other rank goes on.
// Without the End, that rank waits for the rest of its batch while the
// producer waits for room on the other, and the run never returns.
func TestRunFedRankEndedEarly(t *testing.T) {
	cfg := testConfig(2)
	cfg.ValidateEvery = 0 // the closing point is the curve's only one
	samples := synthSamples(22, 3)
	tr, err := runFed(t, context.Background(), cfg, func(f *Feeder) error {
		for i, s := range samples {
			rank := 0
			if i < 2 {
				rank = 1
			}
			if !f.Put(rank, s) {
				return errors.New("sample refused")
			}
			if i == 1 {
				f.End(1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics()
	if m.Batches() != 5 || m.Samples() != len(samples) {
		t.Fatalf("%d batches, %d samples; want 5 and %d", m.Batches(), m.Samples(), len(samples))
	}
	if val := m.Validation(); len(val) != 1 || val[0].Batch != 5 || val[0].Samples != len(samples) {
		t.Fatalf("validation curve %v, want one closing point at the last step", val)
	}
}
