package core

import (
	"context"
	"fmt"

	"melissa/internal/buffer"
	"melissa/internal/telemetry"
)

// Feeder is a producer's handle on a fed run's ranks (RunFed): each rank
// trains from one FIFO buffer that holds two of its batches, so the
// producer runs at most two steps ahead of the trainer and waits there.
type Feeder struct {
	bufs  []*buffer.Blocking
	batch int
	dealt int
}

// Put stores a copy of s for rank, waiting while the rank's buffer is
// full. It reports false when the rank's reception has ended — End, or the
// end of the run — or when s is not one sample of the model's geometry.
func (f *Feeder) Put(rank int, s buffer.Sample) bool {
	return f.bufs[rank].PutCopy(s.SimID, s.Step, s.Input, s.Output)
}

// Deal puts samples to the ranks in turn: BatchSize at a time, rank after
// rank, from one count across every call. The ranks stay within one batch
// of each other, so only the run's last step can be short. It stops at the
// first sample Put refuses. Its signature is dataset.Loader.Epoch's yield.
func (f *Feeder) Deal(samples []buffer.Sample) error {
	for _, s := range samples {
		rank := (f.dealt / f.batch) % len(f.bufs)
		if !f.Put(rank, s) {
			return fmt.Errorf("core: rank %d refused sim %d step %d: not one sample of the model's geometry, or the run is over", rank, s.SimID, s.Step)
		}
		f.dealt++
	}
	return nil
}

// End tells rank that nothing more will arrive: it trains what its buffer
// still holds, then joins the remaining steps with nothing to contribute.
func (f *Feeder) End(rank int) { f.bufs[rank].EndReception() }

func (f *Feeder) endAll() {
	for r := range f.bufs {
		f.End(r)
	}
}

// RunFed trains a Trainer built from cfg on what produce feeds it. produce
// runs on a goroutine of its own while the trainer runs; every rank's
// reception ends when produce returns, and the trainer trains until its
// buffers drain. Reception also ends when Run returns, which releases a
// producer still waiting on a full buffer; what it puts after that is
// refused. A failed Run's error is returned before produce's. On success
// the run's last validation point is taken after its last step (when cfg
// has a validation set), and the trainer is returned for its network and
// metrics.
func RunFed(ctx context.Context, cfg TrainerConfig, produce func(*Feeder) error) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bufs := make([]*buffer.Blocking, cfg.Ranks)
	for r := range bufs {
		bufs[r] = buffer.NewBlockingArena(buffer.NewFIFO(2*cfg.BatchSize), cfg.Normalizer.InputDim(), cfg.Normalizer.OutputDim())
	}
	trainer, err := NewTrainer(cfg, bufs)
	if err != nil {
		return nil, err
	}
	f := &Feeder{bufs: bufs, batch: cfg.BatchSize}
	var produceErr error
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		defer f.endAll()
		produceErr = produce(f)
	}()
	runErr := trainer.Run(ctx)
	f.endAll()
	<-produced
	if runErr != nil {
		return nil, runErr
	}
	if produceErr != nil {
		return nil, produceErr
	}
	if cfg.Validation != nil {
		m := trainer.Metrics()
		m.RecordValidation(m.tel.Value(telemetry.Batches), m.tel.Value(telemetry.Samples), Validate(trainer.Network(), cfg.Validation, cfg.BatchSize*4))
	}
	return trainer, nil
}
