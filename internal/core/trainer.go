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
	"melissa/internal/telemetry"
	"melissa/internal/tensor"
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
	// as one group. Metrics and validation belong to the process hosting
	// global rank 0.
	Comm *ddp.Comm

	// Metrics, when non-nil, is the collector the trainer records into
	// instead of a fresh one — the elastic server threads one instance
	// through the per-epoch trainers so loss curves and its telemetry span
	// group re-formations. The trainer only writes to it: every rank
	// schedules from its own count of the group's samples.
	Metrics *Metrics

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

	// OnBatchEnd, when set, runs once per process after every synchronized
	// step, at the step's closing barrier: on whichever local rank arrives
	// there last, after validation, while every other local rank waits.
	// Every rank has applied its slice of the update and none has extracted
	// its next batch, so the weights, the optimizer state, the buffers and
	// Samples are one consistent cut of the process. The server writes its
	// checkpoints from here.
	OnBatchEnd func(batches int)
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
// them with the other ranks (§3.1).
//
// The paper applies the summed gradient "to each local NN copy to keep them
// identical". The ranks of one process need no copies: they train on one
// value slab and one pair of Adam moments. After backward they meet at a
// barrier; then local rank l of L runs one pass over slice l of L of the
// slab that sums the gradient, scales it by 1/n, takes the Adam step and
// clears slice l of every local gradient slab it read (opt.Adam.StepSum); a
// second barrier holds everyone until every slice is written. Adam is
// element-wise, so the slab holds exactly what L full updates of L copies
// would have left in each of them.
//
// That second barrier is the process's one step boundary. Its last arrival
// runs the boundary's work alone (boundary): validation, then OnBatchEnd,
// once per process per step, while no rank can extract its next batch.
//
// Where the group spans processes, the gradient rides the ring: once its
// backward (nn.Network.Backward) is done, each rank all-reduces its slab
// one layer bucket at a time, and rank l's pass reads the sum from its own
// slab. Where every rank is in this process, nothing is all-reduced and no
// weight gradient is stored (nn.Network.BackwardFactors): the pass reads
// the biases from the L slabs in place and forms each weight gradient from
// the L ranks' batch factors as it goes, adding the ranks in the order the
// ring would have (updatePlan), so the weights are the same bits in every
// layout.
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
	nets  []*nn.Network
	opts  []*opt.Adam
	teams []*tensor.Team // per local rank; nil where the rank's share is one core
	// comm carries the collectives, and its Meet is the step's barrier,
	// passed twice: once every gradient is final (its work counts the
	// step), once every slice of the update is written (its work is
	// boundary).
	comm    *ddp.Comm
	metrics *Metrics
	// ringGrads: the group spans processes, so the gradients are summed by
	// the ring's collectives rather than by the update pass.
	ringGrads bool

	// buckets are the gradient-slab ranges of the layers, one collective
	// each on the ring, identical across replicas (nn.Network.GradBuckets).
	buckets []nn.GradBucket

	// batches and samples are the process's count of the group's steps and
	// of the samples they trained, the one the learning-rate schedule reads
	// and a checkpoint records. They advance identically in every process,
	// from the all-reduced per-step count, in the work of each step's first
	// Meet; RestoreState seeds them.
	batches, samples int

	// wireBase is the registry's wire-byte gauges when Run started: the
	// communicator counts from zero, and the gauges span every trainer the
	// registry has seen.
	wireBase [2]int

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
		cfg:       cfg,
		bufs:      bufs,
		nets:      make([]*nn.Network, cfg.Ranks),
		opts:      make([]*opt.Adam, cfg.Ranks),
		teams:     make([]*tensor.Team, cfg.Ranks),
		comm:      comm,
		metrics:   metrics,
		ringGrads: comm.Size() != comm.LocalRanks(),
	}
	if cfg.InitialWeights != nil {
		if err := base.LoadWeights(bytes.NewReader(cfg.InitialWeights)); err != nil {
			return nil, fmt.Errorf("core: loading initial weights: %w", err)
		}
	}
	t.nets[0] = base
	for r := 1; r < cfg.Ranks; r++ {
		t.nets[r] = base.CloneReplica()
	}
	t.shareOptimizer(opt.NewAdam(cfg.LearningRate))
	t.attachTeams(runtime.GOMAXPROCS(0) / cfg.Ranks)
	// The bucket layout is a property of the architecture; all replicas
	// share it.
	t.buckets = base.GradBuckets()
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
	tel := t.metrics.tel
	tel.Mark(telemetry.Started)
	defer tel.Mark(telemetry.Finished)
	t.wireBase = [2]int{tel.Value(telemetry.WireSent), tel.Value(telemetry.WireRecv)}
	defer t.closeTeams()

	// An aborted step can leave gradients behind; every step from here on
	// clears what it has read.
	for _, n := range t.nets {
		n.ZeroGrad()
	}
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
// reusable prefix-view headers for short tail batches) and the status
// buffer are all reused across steps.
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
	keys   []buffer.Key
	fill   func(i int, s buffer.Sample)
	status [3]float32 // [active ranks, samples this step, ranks that saw the run stopped]

	// parts, zero and scale are the rank's share of the optimizer pass (see
	// updatePlan).
	parts []opt.GradRange
	zero  [][]float32
	scale float32
}

// newRankState preallocates the per-rank training state.
func (t *Trainer) newRankState(rank int) *rankState {
	norm := t.cfg.Normalizer
	st := &rankState{
		rank:      rank,
		grank:     t.comm.RankOffset() + rank,
		net:       t.nets[rank],
		optimizer: t.opts[rank],
		lossFn:    nn.NewMSELoss(),
		in:        tensor.New(t.cfg.BatchSize, norm.InputDim()),
		out:       tensor.New(t.cfg.BatchSize, norm.OutputDim()),
		keys:      make([]buffer.Key, t.cfg.BatchSize),
	}
	st.fill = func(i int, s buffer.Sample) {
		norm.Apply(s, st.in.Row(i), st.out.Row(i))
		st.keys[i] = s.Key()
	}
	st.parts, st.zero, st.scale = t.updatePlan(rank)
	return st
}

// updatePlan returns local rank l's share of the step's optimizer pass: the
// ranges of slice l of L of the slab, each with the sources whose in-order
// sum is its gradient; the slabs the pass clears (every local one, over
// slice l); and the 1/n that turns the group's sum into its mean.
//
// Where the gradients ride the ring, every local slab holds the sum once
// the collectives have returned, and rank l reads its own. In-process, the
// pass sums the L ranks' gradients itself in the ring's order: chunk k of a
// bucket (ddp.ChunkRange) is ((g_k + g_{k+1}) + …) + g_{k−1}, what the
// ring's scatter-reduce would have accumulated there, so the sum has the
// same bits as it does over sockets. A bias is read from the L slabs; a
// weight from the L layers' batch factors (nn.Dense.WeightFactors), its
// gradient formed inside the pass as the ring's trainer forms it in its
// slab, so no weight gradient is ever stored. The buckets tile the slab.
func (t *Trainer) updatePlan(l int) ([]opt.GradRange, [][]float32, float32) {
	ranks, total := t.cfg.Ranks, t.nets[0].NumParams()
	lo, hi := total*l/ranks, total*(l+1)/ranks
	slabs := make([][]float32, ranks)
	for r := range slabs {
		slabs[r] = t.nets[r].FlatGrads()
	}
	scale := float32(1)
	if n := t.comm.Size(); n > 1 {
		scale = 1 / float32(n)
	}
	if t.ringGrads {
		return []opt.GradRange{{Lo: lo, Hi: hi, Srcs: slabs[l : l+1]}}, slabs, scale
	}
	var parts []opt.GradRange
	for k := 0; k < ranks; k++ {
		order := append(append([][]float32(nil), slabs[k:]...), slabs[:k]...)
		for b, bk := range t.buckets {
			factors := make([]tensor.Factors, ranks)
			for i := range factors {
				factors[i] = t.nets[(k+i)%ranks].Layers[b].WeightFactors()
			}
			d := t.nets[0].Layers[b]
			bias := bk.Lo + d.In()*d.Out()
			clo, chi := ddp.ChunkRange(bk.Hi-bk.Lo, ranks, k)
			clo, chi = max(bk.Lo+clo, lo), min(bk.Lo+chi, hi)
			if wlo, whi := clo, min(chi, bias); wlo < whi {
				parts = append(parts, opt.GradRange{Lo: wlo, Hi: whi, Factors: factors, Weight: bk.Lo})
			}
			if blo, bhi := max(clo, bias), chi; blo < bhi {
				parts = append(parts, opt.GradRange{Lo: blo, Hi: bhi, Srcs: order})
			}
		}
	}
	return parts, slabs, scale
}

// rankLoop is the per-rank training thread. Collective calls must stay in
// lock-step across ranks: every iteration performs exactly one status
// all-reduce and, while any rank is active and the gradients ride the ring,
// one collective per layer bucket, in the buckets' order. A collective
// failure (dead peer, aborted ring) ends the loop with that error; it has
// poisoned the communicator, which releases every sibling waiting at the
// step barrier with the same error (see step for what the slab then holds).
func (t *Trainer) rankLoop(rank int) error {
	st := t.newRankState(rank)
	for {
		cont, err := t.step(st)
		if err != nil {
			return fmt.Errorf("core: rank %d stopped at batch %d: %w", st.grank, t.batches, err)
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
// checkpoint, never read. Between steps the gradient slabs are all zero;
// an in-process trainer's layers hold the last batch's weight factors,
// which the next BackwardFactors replaces (or, on a rank with no batch,
// ZeroGrad drops).
func (t *Trainer) step(st *rankState) (bool, error) {
	if t.cfg.MaxBatches > 0 && t.batches >= t.cfg.MaxBatches {
		// The batch counter advances identically in every process, so all
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

	var trainLoss float64
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
		if dy := st.lossFn.Backward(pred, bo); t.ringGrads {
			st.net.Backward(dy)
		} else {
			st.net.BackwardFactors(dy)
		}
		t.metrics.CountKeys(st.keys[:n])
	} else {
		// No batch: the rank's gradient is zero. Its slab already is; its
		// layers forget the last batch's weight factors.
		st.net.ZeroGrad()
	}
	if t.ringGrads {
		// The slab becomes the group's sum — summed, not averaged: the 1/n
		// belongs to the update pass — one collective per layer bucket, in
		// place. A drained rank joins each with its zero gradients.
		grads := st.net.FlatGrads()
		for _, bk := range t.buckets {
			if err := t.comm.AllReduceSumRange(st.grank, grads, bk.Lo, bk.Hi); err != nil {
				return false, err
			}
		}
	}
	// Every local gradient is final, and every sibling is done with the old
	// weights and, on the ring, with its own slab's collectives: the pass
	// may read and clear any slab. The last to arrive counts the step.
	if err := t.comm.Meet(st.grank, func() error {
		t.batches++
		t.samples += int(st.status[1] + 0.5)
		return nil
	}); err != nil {
		return false, err
	}

	// Every process, global rank 0's included, schedules from its own count:
	// the metrics may have counted steps this trainer's weights never took
	// (an aborted epoch the group re-formed from without a checkpoint).
	if st.grank == 0 {
		t.metrics.tel.Add(telemetry.Batches, 1)
		t.metrics.tel.Add(telemetry.Samples, int(st.status[1]+0.5))
		if ok {
			t.metrics.RecordTrainLoss(t.batches, t.samples, trainLoss)
		}
		sent, recv := t.comm.WireBytes()
		t.metrics.tel.Set(telemetry.WireSent, t.wireBase[0]+int(sent))
		t.metrics.tel.Set(telemetry.WireRecv, t.wireBase[1]+int(recv))
	}
	if t.cfg.Schedule != nil {
		st.optimizer.SetLR(t.cfg.Schedule.LR(t.samples))
	}
	// This rank sums, averages and applies its share of the gradient, slice
	// rank of Ranks of the process's slab, and clears that slice of every
	// local gradient slab. The barrier keeps the boundary and every
	// sibling's next forward and backward from a half-written slab; its last
	// arrival runs the boundary.
	st.optimizer.StepSum(st.net.FlatParams(), st.parts, st.zero, st.scale)
	if err := t.comm.Meet(st.grank, t.boundary); err != nil {
		return false, err
	}
	return true, nil
}

// boundary is the process's step boundary, run by the last local rank to
// reach the step's closing Meet while the others wait: every rank has
// written its slice of the update and none has extracted its next batch. It
// validates when due, in the process hosting global rank 0 — §4.4: on the
// training thread, holding rank 0's buffer mutex, so incoming data queue up
// in the transport — and then runs OnBatchEnd.
func (t *Trainer) boundary() error {
	if t.comm.RankOffset() == 0 && t.cfg.Validation != nil && t.cfg.ValidateEvery > 0 && t.batches%t.cfg.ValidateEvery == 0 {
		t.bufs[0].WithLock(func(*buffer.Policy) {
			t.metrics.RecordValidation(t.batches, t.samples, Validate(t.nets[0], t.cfg.Validation, t.cfg.BatchSize*4))
		})
	}
	if t.cfg.OnBatchEnd != nil {
		t.cfg.OnBatchEnd(t.batches)
	}
	return nil
}

// RestoreState loads checkpointed weights and optimizer state into the
// process's slab and moments and sets its counters, so a restarted
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
	t.batches, t.samples = batches, samples
	t.metrics.tel.Set(telemetry.Batches, batches)
	t.metrics.tel.Set(telemetry.Samples, samples)
	return nil
}

// CaptureState serializes the process's weights and optimizer state for a
// checkpoint. Call it only from OnBatchEnd, where no local rank is
// training, or after Run returns.
func (t *Trainer) CaptureState() (weights, optState []byte, err error) {
	var wbuf, obuf bytes.Buffer
	wbuf.Grow(t.nets[0].WeightsSize())
	if err := t.nets[0].SaveWeights(&wbuf); err != nil {
		return nil, nil, err
	}
	obuf.Grow(t.opts[0].StateSize())
	if err := t.opts[0].SaveState(&obuf); err != nil {
		return nil, nil, err
	}
	return wbuf.Bytes(), obuf.Bytes(), nil
}

// Samples returns the process's count of the group's cumulative samples,
// the one the learning-rate schedule reads and a checkpoint records. It is
// the same in every process of the group. Call it only from OnBatchEnd or
// after Run returns: the ranks advance it without a lock.
func (t *Trainer) Samples() int { return t.samples }
