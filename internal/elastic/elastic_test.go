package elastic_test

// Chaos tests for the elastic training group. Each test drives a
// ≥3-member loopback TCP group through a deterministic fault — a rank
// killed mid-run, a restarted rank rejoining, a partitioned ring — and
// asserts the recovery contract: the group re-forms over the survivors at
// a new epoch, rolls back to the last committed group checkpoint, and
// finishes with final weights bit-identical to an unfaulted reference run
// of the same effective schedule (built piecewise from in-process ddp.Comm
// trainers, which are pinned bit-identical to the socket layouts).

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/elastic"
	"melissa/internal/telemetry"
	"melissa/internal/testbuf"
	"melissa/internal/testchaos"
	"melissa/internal/testwait"
	"melissa/internal/transport"
)

const (
	egWorld      = 3
	egBatch      = 4
	egMaxBatches = 12
	egCkptEvery  = 4
	egFieldDim   = 16
)

func egNormalizer() core.FieldNormalizer { return core.NewHeatNormalizer(egFieldDim, 1) }

func egSpec(norm core.FieldNormalizer) core.ModelSpec {
	return core.ModelSpec{InputDim: norm.InputDim(), Hidden: []int{12}, OutputDim: norm.OutputDim(), Seed: 7}
}

// memberSamples generates member m's deterministic training stream: the
// same values every run and in every process, keyed only by the member ID,
// so an elastic member and its reference-trainer counterpart consume
// identical data.
func memberSamples(norm core.FieldNormalizer, member, count int) []buffer.Sample {
	d := norm.Space.Dim()
	samples := make([]buffer.Sample, count)
	for i := range samples {
		in := make([]float32, d+1)
		for j := 0; j < d; j++ {
			in[j] = float32(100 + (7*i+13*j+31*member)%400)
		}
		in[d] = float32(i%10) * 0.1
		out := make([]float32, norm.OutputDim())
		for j := range out {
			out[j] = float32(150 + (11*i+5*j+17*member)%300)
		}
		samples[i] = buffer.Sample{SimID: member, Step: i, Input: in, Output: out}
	}
	return samples
}

// memberBuf builds member m's FIFO training buffer with its full stream
// preloaded and reception closed, optionally rewound to a checkpoint
// snapshot. Prefill before restore mirrors the elastic app exactly.
func memberBuf(t testing.TB, norm core.FieldNormalizer, member int, snap *bufSnap) *buffer.Blocking {
	t.Helper()
	bb := buffer.NewBlockingArena(buffer.NewFIFO(0), norm.InputDim(), norm.OutputDim())
	testbuf.Put(t, bb, memberSamples(norm, member, egMaxBatches*egBatch)...)
	bb.EndReception()
	if snap != nil {
		bb.ReplaceContents(func(_, _ []buffer.Sample) ([]buffer.Sample, []buffer.Sample) {
			return snap.seen, snap.unseen
		})
	}
	return bb
}

type bufSnap struct{ seen, unseen []buffer.Sample }

// appPayload is how the test application carries its buffer snapshot in a
// shard's opaque App field.
type appPayload struct{ Seen, Unseen []buffer.Sample }

func encodeSnap(seen, unseen []buffer.Sample) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(appPayload{seen, unseen}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func decodeSnap(app []byte) (*bufSnap, error) {
	var p appPayload
	if err := gob.NewDecoder(bytes.NewReader(app)).Decode(&p); err != nil {
		return nil, err
	}
	return &bufSnap{seen: p.Seen, unseen: p.Unseen}, nil
}

// refPoint is a boundary of the reference trajectory: full trainer state
// plus every participating member's buffer snapshot.
type refPoint struct {
	flat     []float32 // final weights, for comparison
	weights  []byte
	optState []byte
	batches  int
	samples  int
	bufs     map[int]*bufSnap
}

// runPhase runs the in-process reference trainer for one membership
// stretch — members' ranks in ascending-ID order over the in-process backend,
// exactly the collective group an elastic epoch forms over TCP — from an
// optional start point to maxBatches, and captures the end point.
func runPhase(t *testing.T, members []int, start *refPoint, bufSrc map[int]*bufSnap, maxBatches int) *refPoint {
	t.Helper()
	norm := egNormalizer()
	bufs := make([]*buffer.Blocking, len(members))
	for i, m := range members {
		var snap *bufSnap
		if bufSrc != nil {
			snap = bufSrc[m]
		}
		bufs[i] = memberBuf(t, norm, m, snap)
	}
	tr, err := core.NewTrainer(core.TrainerConfig{
		Ranks:      len(members),
		BatchSize:  egBatch,
		Model:      egSpec(norm),
		Normalizer: norm,
		MaxBatches: maxBatches,
	}, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if start != nil {
		if err := tr.RestoreState(start.weights, start.optState, start.batches, start.samples); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	w, o, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	pt := &refPoint{
		flat:     append([]float32(nil), tr.Network().FlatParams()...),
		weights:  w,
		optState: o,
		batches:  tr.Metrics().Telemetry().Value(telemetry.Batches),
		samples:  tr.Metrics().Telemetry().Value(telemetry.Samples),
		bufs:     make(map[int]*bufSnap, len(members)),
	}
	for i, m := range members {
		s := &bufSnap{}
		bufs[i].WithLock(func(p *buffer.Policy) {
			s.seen, s.unseen = p.Snapshot()
		})
		pt.bufs[m] = s
	}
	return pt
}

// groupHarness runs a coordinator plus elastic members whose app callback
// is the checkpointing trainer loop, and records what each member observed.
type groupHarness struct {
	t     *testing.T
	dir   string
	coord *elastic.Coordinator

	mu       sync.Mutex
	finalW   map[int][]float32       // member → weights of its last clean finish
	sessions map[int][]sessionRecord // member → sessions it participated in
	hook     func(memberID int, sess *elastic.Session, batches int)
	ringOpts func(memberID int) func(epoch int) transport.RingOptions
}

type sessionRecord struct {
	epoch, world, restore int
}

func newGroupHarness(t *testing.T, world int) *groupHarness {
	t.Helper()
	dir := t.TempDir()
	coord, err := elastic.NewCoordinator(elastic.CoordinatorConfig{
		Addr:        "127.0.0.1:0",
		World:       world,
		Dir:         dir,
		FormTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return &groupHarness{
		t:        t,
		dir:      dir,
		coord:    coord,
		finalW:   make(map[int][]float32),
		sessions: make(map[int][]sessionRecord),
	}
}

// app is one member's per-epoch callback: build the member's buffer,
// restore from the group checkpoint when the epoch has one, train with
// per-boundary shard writes, and record a clean finish.
func (h *groupHarness) app(memberID int) func(ctx context.Context, sess *elastic.Session) error {
	norm := egNormalizer()
	return func(ctx context.Context, sess *elastic.Session) error {
		h.mu.Lock()
		h.sessions[memberID] = append(h.sessions[memberID], sessionRecord{
			epoch: sess.Epoch(), world: sess.World(), restore: sess.RestoreBatch(),
		})
		h.mu.Unlock()

		var restored *elastic.State
		var snap *bufSnap
		if sess.RestoreBatch() >= 0 {
			st, err := sess.LoadState()
			if err != nil {
				return err
			}
			restored = st
			if st.App != nil {
				if snap, err = decodeSnap(st.App); err != nil {
					return err
				}
			}
		}
		bb := memberBuf(h.t, norm, memberID, snap)

		var tr *core.Trainer
		cfg := core.TrainerConfig{
			Ranks:      1,
			Comm:       sess.Comm(),
			BatchSize:  egBatch,
			Model:      egSpec(norm),
			Normalizer: norm,
			MaxBatches: egMaxBatches,
		}
		cfg.OnLocalBatchEnd = func(_, batches int) {
			if batches%egCkptEvery == 0 {
				w, o, err := tr.CaptureState()
				if err != nil {
					panic(err)
				}
				var seen, unseen []buffer.Sample
				bb.WithLock(func(p *buffer.Policy) {
					seen, unseen = p.Snapshot()
				})
				// A save can fail only during teardown (control conn gone);
				// the group checkpoint protocol tolerates the missing shard.
				sess.SaveShard(&elastic.State{
					Batch:    batches,
					Samples:  tr.LocalSamples(0),
					Weights:  w,
					OptState: o,
					App:      encodeSnap(seen, unseen),
				})
			}
			if h.hook != nil {
				h.hook(memberID, sess, batches)
			}
		}
		var err error
		tr, err = core.NewTrainer(cfg, []*buffer.Blocking{bb})
		if err != nil {
			return err
		}
		if restored != nil {
			if err := tr.RestoreState(restored.Weights, restored.OptState, restored.Batch, restored.Samples); err != nil {
				return err
			}
		}
		if err := tr.Run(ctx); err != nil {
			return err
		}
		// A clean finish means the schedule completed (the buffers hold
		// exactly MaxBatches of data), so these are final weights. Only
		// global rank 0 advances Metrics, hence no counter check here.
		h.mu.Lock()
		h.finalW[memberID] = append([]float32(nil), tr.Network().FlatParams()...)
		h.mu.Unlock()
		return nil
	}
}

func (h *groupHarness) newMember(memberID int) *elastic.Member {
	h.t.Helper()
	cfg := elastic.MemberConfig{
		ID:          memberID,
		Coordinator: h.coord.Addr(),
		Dir:         h.dir,
		Run:         h.app(memberID),
	}
	if h.ringOpts != nil {
		cfg.RingOptions = h.ringOpts(memberID)
	} else {
		cfg.RingOptions = func(int) transport.RingOptions {
			return transport.RingOptions{IOTimeout: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond}
		}
	}
	m, err := elastic.NewMember(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

func (h *groupHarness) records(memberID int) []sessionRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]sessionRecord(nil), h.sessions[memberID]...)
}

// awaitCheckpoint holds a fault hook until the coordinator has committed the
// group checkpoint at batch. Members are past that batch when they inject a
// fault, but their shards are saved asynchronously: a fault that lands
// before the commit legitimately rolls the group back to the start, not to
// the checkpoint the test expects.
func (h *groupHarness) awaitCheckpoint(batch int) {
	testwait.Until(h.t, fmt.Sprintf("the coordinator to commit checkpoint %d", batch), func() bool {
		return h.coord.ManifestBatch() >= batch
	})
}

func (h *groupHarness) final(memberID int) []float32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.finalW[memberID]
}

func assertWeights(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no final weights recorded", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: weight count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: weight %d diverged: %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestElasticKillRollbackFinish is the headline robustness test: one rank
// of a 3-member TCP group is killed mid-run (after batch 6, past the
// batch-4 group checkpoint). The survivors must detect the death, re-form
// as a 2-member group at epoch 2, roll back to batch 4, finish the
// schedule, and end with weights bit-identical to an unfaulted reference
// run of the same effective schedule.
func TestElasticKillRollbackFinish(t *testing.T) {
	h, runErrs := runKillMember1(t)
	if !errors.Is(runErrs[1], elastic.ErrKilled) {
		t.Fatalf("killed member returned %v, want ErrKilled", runErrs[1])
	}
	for _, i := range []int{0, 2} {
		if runErrs[i] != nil {
			t.Fatalf("survivor %d: %v", i, runErrs[i])
		}
		recs := h.records(i)
		last := recs[len(recs)-1]
		if last.epoch < 2 || last.world != 2 || last.restore != egCkptEvery {
			t.Fatalf("survivor %d final session %+v, want epoch ≥ 2, world 2, restore %d", i, last, egCkptEvery)
		}
	}

	// Reference: 3 ranks to the batch-4 checkpoint, then the two survivors
	// from that state to the end of the schedule.
	ph1 := runPhase(t, []int{0, 1, 2}, nil, nil, egCkptEvery)
	ph2 := runPhase(t, []int{0, 2}, ph1, ph1.bufs, egMaxBatches)
	assertWeights(t, "survivor 0", h.final(0), ph2.flat)
	assertWeights(t, "survivor 2", h.final(2), ph2.flat)
}

// TestElasticShardsPrunedOnCommit pins shard retention over the kill
// scenario: once the last manifest is committed, each member keeps only its
// newest shard at or before the manifest batch — the survivors' shards at
// that batch, which a restore reads, and the killed member's last one, which
// it would read its buffer back from on rejoining.
func TestElasticShardsPrunedOnCommit(t *testing.T) {
	h, _ := runKillMember1(t)
	if b := h.coord.ManifestBatch(); b != egMaxBatches {
		t.Fatalf("last manifest at batch %d, want %d", b, egMaxBatches)
	}
	paths, err := filepath.Glob(filepath.Join(h.dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		got = append(got, filepath.Base(p))
	}
	want := []string{
		fmt.Sprintf("shard-m0-b%d.ckpt", egMaxBatches),
		fmt.Sprintf("shard-m1-b%d.ckpt", egCkptEvery),
		fmt.Sprintf("shard-m2-b%d.ckpt", egMaxBatches),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("shards left in the group directory %v, want %v", got, want)
	}
}

// TestElasticAloneResumesAndPrunes: a member without a coordinator is a
// group of one. Each shard it saves commits at once and replaces the ones
// before it; a member started later on the same directory restores from the
// newest; and a member killed before Run never runs its epoch.
func TestElasticAloneResumesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	alone := func(run func(context.Context, *elastic.Session) error) *elastic.Member {
		m, err := elastic.NewMember(elastic.MemberConfig{Dir: dir, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := alone(func(_ context.Context, sess *elastic.Session) error {
		if sess.Epoch() != 0 || sess.World() != 1 || sess.Comm().Size() != 1 || sess.RestoreBatch() != -1 {
			return fmt.Errorf("fresh session: epoch %d, world %d, comm %d, restore %d",
				sess.Epoch(), sess.World(), sess.Comm().Size(), sess.RestoreBatch())
		}
		for b := 1; b <= 2; b++ {
			if err := sess.SaveShard(&elastic.State{Batch: b, Samples: 10 * b, App: []byte{byte(b)}}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(dir, "shard-m0-b2.ckpt")}; !slices.Equal(paths, want) {
		t.Fatalf("directory holds %v, want %v", paths, want)
	}

	var got *elastic.State
	appErr := errors.New("application failed")
	second := alone(func(_ context.Context, sess *elastic.Session) error {
		if b := sess.RestoreBatch(); b != 2 {
			return fmt.Errorf("restarted session restores batch %d, want 2", b)
		}
		var err error
		if got, err = sess.LoadState(); err != nil {
			return err
		}
		return appErr
	})
	if err := second.Run(context.Background()); !errors.Is(err, appErr) {
		t.Fatalf("Run returned %v, want the application's error", err)
	}
	if got.Batch != 2 || got.Samples != 20 || !bytes.Equal(got.App, []byte{2}) {
		t.Fatalf("restored batch %d, samples %d, app %v; want the batch-2 shard", got.Batch, got.Samples, got.App)
	}

	killed := alone(func(context.Context, *elastic.Session) error {
		t.Error("a member killed before Run ran its epoch")
		return nil
	})
	testchaos.Kill(killed)
	if err := killed.Run(context.Background()); !errors.Is(err, elastic.ErrKilled) {
		t.Fatalf("killed member returned %v, want ErrKilled", err)
	}
}

// runKillMember1 runs a 3-member group whose member 1 is killed after
// batch 6, past the committed batch-4 checkpoint, and returns once the
// coordinator has stopped the group, with every member's Run result.
func runKillMember1(t *testing.T) (*groupHarness, []error) {
	h := newGroupHarness(t, egWorld)
	members := make([]*elastic.Member, egWorld)
	var killOnce sync.Once
	h.hook = func(memberID int, sess *elastic.Session, batches int) {
		if memberID == 1 && sess.Epoch() == 1 && batches == 6 {
			h.awaitCheckpoint(egCkptEvery)
			killOnce.Do(func() { testchaos.Kill(members[1]) })
		}
	}
	for i := range members {
		members[i] = h.newMember(i)
	}
	runErrs := make([]error, egWorld)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *elastic.Member) {
			defer wg.Done()
			runErrs[i] = m.Run(context.Background())
		}(i, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	return h, runErrs
}

// TestElasticRejoinAfterRestart extends the kill scenario with recovery:
// after the survivors re-form and checkpoint at batch 8, the killed rank
// restarts, reconnects, and must be folded into a 3-member epoch that
// rolls back to batch 8 — the rejoiner adopting a peer's replica state and
// its own last buffer snapshot — and the group finishes bit-identical to
// the piecewise reference.
func TestElasticRejoinAfterRestart(t *testing.T) {
	h := newGroupHarness(t, egWorld)
	members := make([]*elastic.Member, egWorld)
	var killOnce sync.Once
	gateReached := make(chan int, 2*egWorld)
	h.hook = func(memberID int, sess *elastic.Session, batches int) {
		if memberID == 1 && sess.Epoch() == 1 && batches == 6 {
			h.awaitCheckpoint(egCkptEvery)
			killOnce.Do(func() { testchaos.Kill(members[1]) })
		}
		// Park the 2-member recovery epoch at batch 10 (with the batch-8
		// checkpoint committed) until the restarted member's arrival tears
		// the epoch down for the 3-member rejoin epoch.
		if sess.World() == 2 && batches == 10 {
			gateReached <- memberID
			<-sess.Aborted()
		}
	}
	for i := range members {
		members[i] = h.newMember(i)
	}
	runErrs := make([]error, egWorld+1)
	var wg sync.WaitGroup
	run := func(slot int, m *elastic.Member) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runErrs[slot] = m.Run(context.Background())
		}()
	}
	for i, m := range members {
		run(i, m)
	}

	// Wait for both survivors to park past the batch-8 checkpoint.
	for i := 0; i < 2; i++ {
		select {
		case <-gateReached:
		case <-time.After(30 * time.Second):
			t.Fatal("survivors never reached the rejoin gate")
		}
	}
	h.awaitCheckpoint(2 * egCkptEvery)

	restarted := h.newMember(1)
	run(egWorld, restarted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()

	if !errors.Is(runErrs[1], elastic.ErrKilled) {
		t.Fatalf("killed member returned %v, want ErrKilled", runErrs[1])
	}
	for _, slot := range []int{0, 2, egWorld} {
		if runErrs[slot] != nil {
			t.Fatalf("member slot %d: %v", slot, runErrs[slot])
		}
	}
	// The restarted member must have been admitted at a later epoch with
	// the rolled-back restore point.
	recs := h.records(1)
	last := recs[len(recs)-1]
	if last.epoch < 3 || last.world != egWorld || last.restore != 2*egCkptEvery {
		t.Fatalf("rejoiner final session %+v, want epoch ≥ 3, world %d, restore %d", last, egWorld, 2*egCkptEvery)
	}

	// Reference: 3 ranks to batch 4, survivors to batch 8, then all three
	// from batch 8 — the rejoiner's buffer resuming from its own batch-4
	// snapshot, exactly what LoadState reconstructs.
	ph1 := runPhase(t, []int{0, 1, 2}, nil, nil, egCkptEvery)
	ph2 := runPhase(t, []int{0, 2}, ph1, ph1.bufs, 2*egCkptEvery)
	ph3Bufs := map[int]*bufSnap{0: ph2.bufs[0], 1: ph1.bufs[1], 2: ph2.bufs[2]}
	ph3 := runPhase(t, []int{0, 1, 2}, ph2, ph3Bufs, egMaxBatches)
	for _, id := range []int{0, 1, 2} {
		assertWeights(t, fmt.Sprintf("member %d", id), h.final(id), ph3.flat)
	}
}

// TestElasticPartitionReform cuts one member's ring links with the
// deterministic chaos wrapper mid-epoch: every member's collectives must
// time out (no panics), the group re-forms — same membership, new epoch,
// clean links — rolls back to the checkpoint, and finishes bit-identical
// to an unfaulted run.
func TestElasticPartitionReform(t *testing.T) {
	h := newGroupHarness(t, egWorld)
	chaos := transport.NewChaos(transport.ChaosConfig{Seed: transport.ChaosSeed(42)})
	h.ringOpts = func(memberID int) func(epoch int) transport.RingOptions {
		return func(epoch int) transport.RingOptions {
			o := transport.RingOptions{IOTimeout: 500 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond}
			if memberID == 1 && epoch == 1 {
				o.Wrap = chaos.Wrap // only the first epoch's links are faulty
			}
			return o
		}
	}
	h.hook = func(memberID int, sess *elastic.Session, batches int) {
		if memberID == 1 && sess.Epoch() == 1 && batches == 6 {
			h.awaitCheckpoint(egCkptEvery)
			chaos.Partition(true)
		}
	}
	members := make([]*elastic.Member, egWorld)
	for i := range members {
		members[i] = h.newMember(i)
	}
	runErrs := make([]error, egWorld)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *elastic.Member) {
			defer wg.Done()
			runErrs[i] = m.Run(context.Background())
		}(i, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()

	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		recs := h.records(i)
		last := recs[len(recs)-1]
		if last.epoch < 2 || last.world != egWorld || last.restore != egCkptEvery {
			t.Fatalf("member %d final session %+v, want epoch ≥ 2, world %d, restore %d", i, last, egWorld, egCkptEvery)
		}
	}

	// Unfaulted reference of the same effective schedule: to the batch-4
	// checkpoint, then restored to the end — the same two-leg trajectory
	// the re-formed group trains.
	ph1 := runPhase(t, []int{0, 1, 2}, nil, nil, egCkptEvery)
	ph2 := runPhase(t, []int{0, 1, 2}, ph1, ph1.bufs, egMaxBatches)
	for _, id := range []int{0, 1, 2} {
		assertWeights(t, fmt.Sprintf("member %d", id), h.final(id), ph2.flat)
	}
}
