package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"melissa/internal/buffer"
	"melissa/internal/ddp"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/tensor"
)

// GradSyncMode selects how per-batch gradients are synchronized across
// ranks.
type GradSyncMode int

const (
	// SyncOverlap (the default) buckets the gradient slab by layer
	// boundaries and launches each bucket's all-reduce as soon as backward
	// finalizes that layer's gradients, overlapping communication with the
	// remaining backpropagation. Bit-identical to SyncSerial. With fused
	// Dense+activation layers every bucket is one weight+bias pair, so the
	// overlap granularity is unchanged from the unfused structure.
	SyncOverlap GradSyncMode = iota
	// SyncSerial runs the same per-bucket collectives, but only after the
	// full backward pass — the paper's §3.1 ordering. It exists as the
	// reference for the overlap equivalence tests and benchmarks.
	SyncSerial
)

// TrainerConfig configures the data-parallel online training loop.
type TrainerConfig struct {
	Ranks     int // learner replicas ("GPUs") in this process; one training buffer each
	BatchSize int // samples per rank per synchronized step (paper: 10)

	// Comm places this process's ranks in the data-parallel group: it
	// carries the gradient collectives over its wire codec, and local rank l
	// is its global rank RankOffset()+l. It must host exactly Ranks local
	// ranks. Nil builds an in-process ring over Ranks. A communicator over
	// an inter-process ring (ddp.NewHierComm) lets several processes train
	// as one group. Metrics, validation and checkpoints belong to global
	// rank 0.
	Comm *ddp.Comm

	// Metrics, when non-nil, is the collector the trainer records into
	// instead of a fresh one — the elastic server threads one instance
	// through the per-epoch trainers so counters and loss curves span
	// group re-formations. The trainer only writes to it: every rank
	// schedules from its own count of the group's samples.
	Metrics *Metrics

	// GradSync selects overlapped-bucketed (default) or serial-bucketed
	// gradient synchronization.
	GradSync GradSyncMode

	Model      ModelSpec
	Normalizer Normalizer
	// InitialWeights, when non-nil, warm-starts every replica from a
	// saved checkpoint (nn weight format) instead of the seeded random
	// init — the paper's §5 production workflow: "combine pre-training …
	// from a static reduced dataset and few online re-training at scale".
	InitialWeights []byte
	LearningRate   float64      // initial (paper: 1e-3)
	Schedule       opt.Schedule // may be nil for a constant rate

	Validation    *ValidationSet
	ValidateEvery int // in global batches (paper: 100); 0 disables

	// MaxBatches stops training after this many synchronized steps;
	// 0 trains until every buffer drains.
	MaxBatches int

	TrackOccurrences bool

	// OnBatchEnd, when set, runs on global rank 0 after every synchronized
	// step (other ranks stall at the next collective meanwhile). The
	// server uses it to take periodic checkpoints at a consistent
	// boundary.
	OnBatchEnd func(batches int)

	// OnLocalBatchEnd, when set, runs on every local rank after each
	// synchronized step, once the optimizer update has been applied, with
	// the rank's local index and batch count. Unlike OnBatchEnd it fires
	// on every rank: the elastic group checkpoints use it to write
	// per-rank shards at a consistent step boundary.
	OnLocalBatchEnd func(rank, batches int)
}

func (c TrainerConfig) validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("core: ranks=%d must be ≥ 1", c.Ranks)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("core: batch size=%d must be ≥ 1", c.BatchSize)
	}
	if c.Normalizer == nil {
		return errors.New("core: normalizer required")
	}
	if c.Comm != nil && c.Comm.LocalRanks() != c.Ranks {
		return fmt.Errorf("core: communicator hosts %d local ranks, trainer configured for %d", c.Comm.LocalRanks(), c.Ranks)
	}
	return nil
}

// Trainer runs the paper's training threads: each rank extracts batches
// from its own buffer, computes gradients on its replica and all-reduces
// them with the other ranks (§3.1). With the default overlapped mode, each
// layer's gradient bucket is all-reduced concurrently with the
// backpropagation of earlier layers.
//
// The paper applies the summed gradient "to each local NN copy to keep them
// identical". The ranks of one process need no copies: they train on one
// value slab and one pair of Adam moments, local rank l of L applies the
// update to slice l of L, and a barrier holds everyone until every slice is
// written. Adam is element-wise, so the slab holds exactly what L full
// updates of L copies would have left in each of them.
//
// Each local rank owns the process's cores in equal shares: a rank whose
// share is two or more cores runs its forward, backward, Adam slice and
// validation on a tensor.Team that wide, which Run closes when it returns.
type Trainer struct {
	cfg  TrainerConfig
	bufs []*buffer.Blocking
	// nets[0] owns the value slab; the others are its replicas
	// (nn.Network.CloneReplica), each with a gradient slab of its own.
	// opts are per-rank handles on one (m, v) pair (opt.Adam.Alias).
	nets    []*nn.Network
	opts    []*opt.Adam
	teams   []*tensor.Team // per local rank; nil where the rank's share is one core
	updated *barrier       // every local rank has written its slice of the update
	comm    *ddp.Comm
	metrics *Metrics

	// buckets are the gradient-slab ranges in backward-completion order,
	// identical across replicas; bucketOfLayer maps a layer index to its
	// bucket (or -1).
	buckets       []nn.GradBucket
	bucketOfLayer []int

	// localSamples[r] is local rank r's count of the group's cumulative
	// samples, the one the learning-rate schedule reads. It advances
	// identically on every rank of the group because it is derived from the
	// all-reduced per-step count.
	localSamples []int

	// startBatches/startSamples seed the counters after a checkpoint
	// restore so learning-rate schedules resume where they left off.
	startBatches int
	startSamples int

	// stopped is the run's own stop signal, set when Run's context is
	// cancelled. A rank reads it where it would otherwise wait for data and
	// reports it in the step's status all-reduce, so every rank of the
	// group leaves on the same step. The buffers are not told: whether more
	// data will arrive is the producer's fact, not the trainer's.
	stopped atomic.Bool
}

// NewTrainer builds the network (weights from the seeded spec) with one
// replica per further local rank and wires them to the per-rank buffers.
// len(bufs) must equal cfg.Ranks.
func NewTrainer(cfg TrainerConfig, bufs []*buffer.Blocking) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(bufs) != cfg.Ranks {
		return nil, fmt.Errorf("core: %d buffers for %d ranks", len(bufs), cfg.Ranks)
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 1e-3
	}
	base, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	comm := cfg.Comm
	if comm == nil {
		comm = ddp.NewCommunicator(cfg.Ranks)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = NewMetrics(cfg.TrackOccurrences)
	}
	t := &Trainer{
		cfg:          cfg,
		bufs:         bufs,
		nets:         make([]*nn.Network, cfg.Ranks),
		opts:         make([]*opt.Adam, cfg.Ranks),
		teams:        make([]*tensor.Team, cfg.Ranks),
		comm:         comm,
		metrics:      metrics,
		localSamples: make([]int, cfg.Ranks),
	}
	if cfg.InitialWeights != nil {
		if err := base.LoadWeights(bytes.NewReader(cfg.InitialWeights)); err != nil {
			return nil, fmt.Errorf("core: loading initial weights: %w", err)
		}
	}
	t.updated = newBarrier(cfg.Ranks)
	t.nets[0] = base
	for r := 1; r < cfg.Ranks; r++ {
		t.nets[r] = base.CloneReplica()
	}
	t.shareOptimizer(opt.NewAdam(cfg.LearningRate))
	t.attachTeams(runtime.GOMAXPROCS(0) / cfg.Ranks)
	// The bucket layout is a property of the architecture; all replicas
	// share it.
	t.buckets = base.GradBuckets()
	t.bucketOfLayer = make([]int, len(base.Layers))
	for i := range t.bucketOfLayer {
		t.bucketOfLayer[i] = -1
	}
	for b, bk := range t.buckets {
		if bk.Layer >= 0 {
			t.bucketOfLayer[bk.Layer] = b
		}
	}
	return t, nil
}

// shareOptimizer makes a the optimizer state of the process: every local
// rank gets a handle on its moments, stepped on the rank's team.
func (t *Trainer) shareOptimizer(a *opt.Adam) {
	for r := range t.opts {
		t.opts[r] = a.Alias(t.nets[0].NumParams())
		t.opts[r].SetTeam(t.teams[r])
	}
}

// attachTeams gives every local rank a team width cores wide (none below
// two) for its replica and its optimizer handle.
func (t *Trainer) attachTeams(width int) {
	for r := range t.teams {
		t.teams[r] = tensor.NewTeam(width)
		t.nets[r].SetTeam(t.teams[r])
		t.opts[r].SetTeam(t.teams[r])
	}
}

// closeTeams stops every rank's helpers; the networks run inline afterwards.
func (t *Trainer) closeTeams() {
	for _, tm := range t.teams {
		tm.Close()
	}
}

// Network returns the network that owns the process's one value slab.
func (t *Trainer) Network() *nn.Network { return t.nets[0] }

// Comm returns the communicator the gradient collectives run on.
func (t *Trainer) Comm() *ddp.Comm { return t.comm }

// Metrics returns the shared metrics collector. Counters advance only on
// the trainer owning global rank 0.
func (t *Trainer) Metrics() *Metrics { return t.metrics }

// errCancelled ends a run that some rank of the group was told to stop.
var errCancelled = fmt.Errorf("run cancelled on a rank of the group: %w", context.Canceled)

// Run trains until every rank's buffer is drained (or MaxBatches is hit),
// spawning one goroutine per local rank. Cancelling ctx stops the run at
// the next step boundary: the ranks stop waiting for data and — in every
// process of the group — leave together, whatever the buffers still hold,
// with an error wrapping context.Canceled. The work is not complete, so an
// elastic group treats it as the loss of a member, not as the end of
// training. The ranks' teams are closed on return, so Network keeps working
// inline for whoever takes it over.
func (t *Trainer) Run(ctx context.Context) error {
	t.metrics.Begin()
	defer t.metrics.Finish()
	defer t.closeTeams()

	unwatch := context.AfterFunc(ctx, func() {
		t.stopped.Store(true)
		for _, b := range t.bufs {
			b.Wake()
		}
	})
	defer unwatch()

	errs := make([]error, t.cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < t.cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = t.rankLoop(rank)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rankState is the per-rank training-thread state. Everything the hot loop
// touches is preallocated here once, so a steady-state synchronized step
// performs no heap allocations: the batch slice, the batch matrices (plus
// reusable prefix-view headers for short tail batches), the status buffer,
// and the bucket-sync channels are all reused across steps.
type rankState struct {
	rank      int // local rank (buffer/replica index)
	grank     int // global rank in the communicator's rank space
	net       *nn.Network
	optimizer *opt.Adam
	lossFn    *nn.MSELoss

	in, out         *tensor.Matrix // full-batch input/target storage
	viewIn, viewOut tensor.Matrix  // reusable prefix views for tail batches
	// keys records the identities of this step's samples for the
	// occurrence metrics; fill normalizes sample i straight into row i of
	// the batch matrices while the buffer lock is held (the payload may
	// alias an arena row that is recycled as soon as the callback
	// returns). Both are allocated once so the step stays allocation-free.
	keys         []buffer.Key
	fill         func(i int, s buffer.Sample)
	status       [3]float32 // [active ranks, samples this step, ranks that saw the run stopped]
	localBatches int

	// Overlap machinery: hook enqueues a finished layer's bucket on jobs;
	// the persistent syncer goroutine runs the bucket collectives in
	// order and acknowledges each on acks (nil on success, the collective
	// error otherwise). launched counts this step's in-flight buckets.
	jobs     chan int
	acks     chan error
	hook     func(layer int)
	launched int

	// lastWireSent/Recv are global rank 0's previous snapshot of the
	// communicator's wire-byte counters; per-step deltas feed the shared
	// metrics so totals survive elastic ring replacement.
	lastWireSent uint64
	lastWireRecv uint64
}

// newRankState preallocates the per-rank training state and starts the
// rank's gradient-sync goroutine. close releases it.
func (t *Trainer) newRankState(rank int) *rankState {
	norm := t.cfg.Normalizer
	st := &rankState{
		rank:         rank,
		grank:        t.comm.RankOffset() + rank,
		net:          t.nets[rank],
		optimizer:    t.opts[rank],
		lossFn:       nn.NewMSELoss(),
		in:           tensor.New(t.cfg.BatchSize, norm.InputDim()),
		out:          tensor.New(t.cfg.BatchSize, norm.OutputDim()),
		keys:         make([]buffer.Key, t.cfg.BatchSize),
		localBatches: t.startBatches,
		jobs:         make(chan int, len(t.buckets)),
		acks:         make(chan error, len(t.buckets)),
	}
	st.fill = func(i int, s buffer.Sample) {
		norm.Apply(s, st.in.Row(i), st.out.Row(i))
		st.keys[i] = s.Key()
	}
	st.hook = func(layer int) {
		if b := t.bucketOfLayer[layer]; b >= 0 {
			st.jobs <- b
			st.launched++
		}
	}
	go t.syncLoop(st)
	t.localSamples[rank] = t.startSamples
	return st
}

// close stops the rank's gradient-sync goroutine.
func (st *rankState) close() { close(st.jobs) }

// syncLoop is the per-rank communication thread: it executes bucket
// all-reduces in launch order, so collectives stay matched across ranks
// while the training thread continues backpropagating. Once a collective
// fails the communicator is poisoned, so later buckets are acknowledged
// with the same error without touching the ring again.
func (t *Trainer) syncLoop(st *rankState) {
	grads := st.net.FlatGrads()
	var failed error
	for b := range st.jobs {
		if failed == nil {
			failed = t.comm.AllReduceSumRange(st.grank, grads, t.buckets[b].Lo, t.buckets[b].Hi)
		}
		st.acks <- failed
	}
}

// rankLoop is the per-rank training thread. Collective calls must stay in
// lock-step across ranks: every iteration performs exactly one status
// all-reduce and, while any rank is active, one gradient sync (a fixed
// sequence of bucket collectives). A collective failure (dead peer, aborted
// ring) ends the loop with that error, and breaks the update barrier for the
// rank's siblings (see step for what the slab then holds).
func (t *Trainer) rankLoop(rank int) error {
	st := t.newRankState(rank)
	defer st.close()
	for {
		cont, err := t.step(st)
		if err != nil {
			// A sibling whose collectives all completed may be waiting there.
			t.updated.fail(err)
			return fmt.Errorf("core: rank %d stopped at batch %d: %w", st.grank, st.localBatches, err)
		}
		if !cont {
			return nil
		}
	}
}

// step performs one synchronized training step and reports whether the
// rank should continue. It is the measured unit of BenchmarkTrainStep and
// is allocation-free in steady state. On a communicator error the rank
// abandons the step before its slice of the optimizer update; a sibling may
// have written its own, so the slab is whole only after a step that
// returned no error, and a failed run's weights are restored from a
// checkpoint, never read.
func (t *Trainer) step(st *rankState) (bool, error) {
	if t.cfg.MaxBatches > 0 && st.localBatches >= t.cfg.MaxBatches {
		// The batch counter advances identically on every rank, so all
		// ranks exit here on the same iteration.
		return false, nil
	}
	// Batch assembly copies straight from the buffer (arena rows for the
	// live server) into the preallocated batch matrices, normalizing in
	// the same pass; the callback runs under the buffer lock, which is
	// what makes reading recycled-in-place payloads safe.
	n, ok := t.bufs[st.rank].GetBatchEachUntil(t.cfg.BatchSize, st.fill, &t.stopped)

	st.status = [3]float32{}
	if ok {
		st.status[0] = 1
		st.status[1] = float32(n)
	}
	if t.stopped.Load() {
		st.status[2] = 1
	}
	if err := t.comm.AllReduceSum(st.grank, st.status[:]); err != nil {
		return false, err
	}
	// All ranks read the same sums, so all leave on the same step.
	if st.status[2] > 0 {
		return false, errCancelled
	}
	if st.status[0] == 0 {
		return false, nil // every buffer drained
	}
	stepSamples := int(st.status[1] + 0.5)

	var trainLoss float64
	st.net.ZeroGrad()
	overlap := t.cfg.GradSync == SyncOverlap
	if ok {
		bi, bo := st.in, st.out
		if n != t.cfg.BatchSize {
			// Tail batch: view the leading rows of the preallocated
			// matrices instead of allocating shorter ones.
			st.in.ViewRows(&st.viewIn, 0, n)
			st.out.ViewRows(&st.viewOut, 0, n)
			bi, bo = &st.viewIn, &st.viewOut
		}
		pred := st.net.Forward(bi)
		trainLoss = st.lossFn.Forward(pred, bo)
		dy := st.lossFn.Backward(pred, bo)
		if overlap {
			// Each layer's bucket is handed to the syncer the moment its
			// gradients are final, overlapping the all-reduce with the
			// rest of the backward pass.
			st.net.BackwardWithHook(dy, st.hook)
		} else {
			st.net.Backward(dy)
		}
		t.metrics.CountKeys(st.keys[:n])
	} else if overlap {
		// Drained ranks contribute zero gradients but must join every
		// collective, in the same bucket order the hook produces.
		for b := range t.buckets {
			st.jobs <- b
			st.launched++
		}
	}
	if err := t.syncGradients(st); err != nil {
		return false, err
	}

	// Every rank, global rank 0 included, schedules from its own count: the
	// metrics may have counted steps this trainer's weights never took (an
	// aborted epoch the group re-formed from without a checkpoint).
	st.localBatches++
	t.localSamples[st.rank] += stepSamples
	samples := t.localSamples[st.rank]
	if st.grank == 0 {
		t.metrics.RecordStep(stepSamples)
		if ok {
			t.metrics.RecordTrainLoss(st.localBatches, samples, trainLoss)
		}
		sent, recv := t.comm.WireBytes()
		t.metrics.AddWireBytes(sent-st.lastWireSent, recv-st.lastWireRecv)
		st.lastWireSent, st.lastWireRecv = sent, recv
	}
	if t.cfg.Schedule != nil {
		st.optimizer.SetLR(t.cfg.Schedule.LR(samples))
	}
	// Every rank holds the same summed gradient; this one averages and
	// applies its share of it, slice rank of Ranks of the process's slab.
	// The barrier keeps validation, the hooks and every sibling's next
	// forward from reading a half-written slab. Nobody is still reading the
	// old weights: the last bucket's all-reduce needed every rank's backward.
	params, grads := st.net.FlatParams(), st.net.FlatGrads()
	lo, hi := len(params)*st.rank/t.cfg.Ranks, len(params)*(st.rank+1)/t.cfg.Ranks
	if n := t.comm.Size(); n > 1 {
		tensor.Scal(1/float32(n), grads[lo:hi])
	}
	st.optimizer.StepFlatRange(params, grads, lo, hi)
	if err := t.updated.wait(); err != nil {
		return false, err
	}

	if st.grank == 0 && t.cfg.Validation != nil && t.cfg.ValidateEvery > 0 && st.localBatches%t.cfg.ValidateEvery == 0 {
		// §4.4: validation runs on the training thread while holding
		// the buffer mutex; incoming data queue up in the transport.
		t.bufs[0].WithLock(func(buffer.Policy) {
			v := Validate(st.net, t.cfg.Validation, t.cfg.BatchSize*4)
			t.metrics.RecordValidation(st.localBatches, samples, v)
		})
	}
	if t.cfg.OnLocalBatchEnd != nil {
		t.cfg.OnLocalBatchEnd(st.rank, st.localBatches)
	}
	if st.grank == 0 && t.cfg.OnBatchEnd != nil {
		t.cfg.OnBatchEnd(st.localBatches)
	}
	return true, nil
}

// syncGradients completes the step's gradient synchronization: it drains
// the in-flight bucket collectives (overlap), or runs them now (serial). On
// return every rank's gradient slab holds the same sum over all ranks —
// summed, not averaged: the 1/n belongs to whoever applies a slice of it
// (see step) — matching the all-reduce of §3.1. The collectives operate
// on the slab in place — no gather/scatter staging. On a collective failure
// the first error is returned — after draining every in-flight bucket, so
// the syncer goroutine is never left blocked — and the gradients are
// unusable.
func (t *Trainer) syncGradients(st *rankState) error {
	grads := st.net.FlatGrads()
	var failed error
	switch t.cfg.GradSync {
	case SyncOverlap:
		for st.launched > 0 {
			if err := <-st.acks; err != nil && failed == nil {
				failed = err
			}
			st.launched--
		}
	case SyncSerial:
		for _, bk := range t.buckets {
			if err := t.comm.AllReduceSumRange(st.grank, grads, bk.Lo, bk.Hi); err != nil {
				return err
			}
		}
	}
	return failed
}

// RestoreState loads checkpointed weights and optimizer state into the
// process's slab and moments and seeds the global counters, so a restarted
// server resumes the exact training trajectory (§3.1). Must be called before
// Run. It installs both blocks or, on an error, neither: the moments are
// decoded aside and checked against the model first, and LoadWeights writes
// nothing until it has read and checked a whole block.
func (t *Trainer) RestoreState(weights, optState []byte, batches, samples int) error {
	restored := opt.NewAdam(t.cfg.LearningRate)
	if err := restored.LoadState(bytes.NewReader(optState)); err != nil {
		return fmt.Errorf("core: restoring optimizer: %w", err)
	}
	if n, want := restored.Len(), t.nets[0].NumParams(); n != 0 && n != want {
		return fmt.Errorf("core: optimizer state has %d floats, model has %d", n, want)
	}
	if err := t.nets[0].LoadWeights(bytes.NewReader(weights)); err != nil {
		return fmt.Errorf("core: restoring weights: %w", err)
	}
	t.shareOptimizer(restored)
	t.startBatches = batches
	t.startSamples = samples
	t.metrics.RestoreCounts(batches, samples)
	return nil
}

// CaptureState serializes the process's weights and optimizer state for a
// checkpoint. Call only from OnBatchEnd (a consistent step boundary) or
// after Run returns.
func (t *Trainer) CaptureState() (weights, optState []byte, err error) {
	var wbuf, obuf bytes.Buffer
	if err := t.nets[0].SaveWeights(&wbuf); err != nil {
		return nil, nil, err
	}
	obuf.Grow(t.opts[0].StateSize())
	if err := t.opts[0].SaveState(&obuf); err != nil {
		return nil, nil, err
	}
	return wbuf.Bytes(), obuf.Bytes(), nil
}

// LocalSamples returns local rank r's count of the group's cumulative
// samples, the one its learning-rate schedule reads. It advances
// identically on every rank (it derives from the all-reduced per-step
// count), so any rank can checkpoint it. Call it only from OnLocalBatchEnd
// or after Run returns — it reads the rank's counter without
// synchronization.
func (t *Trainer) LocalSamples(rank int) int { return t.localSamples[rank] }
