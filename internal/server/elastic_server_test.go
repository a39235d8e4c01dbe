package server

// Chaos test for the unified elastic server runtime: three server members
// ingest a real ensemble over the client transport while training as an
// elastic group; one member is killed at a deterministic batch boundary.
// The survivors must re-form, roll ingestion and replica state back to the
// last committed group checkpoint, keep their client connections, and
// finish with weights bit-identical to a piecewise reference built from
// in-process ddp.Comm trainers over the same per-rank sample streams.
//
// Determinism: simulations stream one at a time with an ingestion barrier
// between them (each sim's frames are fully ingested before the next
// starts), and a client sends all of one rank's frames over a single
// connection, so every rank's FIFO arrival order is a pure function of the
// round-robin routing — exactly what chaosStreams computes analytically.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"melissa/internal/buffer"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/elastic"
	"melissa/internal/solver"
	"melissa/internal/telemetry"
	"melissa/internal/testbuf"
	"melissa/internal/testchaos"
	"melissa/internal/testwait"
	"melissa/internal/transport"
)

const (
	csMembers    = 3
	csSims       = 18 // 18 sims × 8 steps = exactly 48 samples per rank
	csMaxBatches = 12 // 12 batches × batch size 4 consume all 48
	csCkptEvery  = 4
	csKillBatch  = 6 // past the batch-4 group checkpoint, before batch 8
)

// chaosStreams computes each global data rank's deterministic arrival
// order: for every sim in streaming order, the steps the round-robin
// distribution routes to the rank, with exactly the float32 reductions the
// client applies in situ.
func chaosStreams(t *testing.T) *[csMembers][]buffer.Sample {
	t.Helper()
	var streams [csMembers][]buffer.Sample
	for c := 0; c < csSims; c++ {
		sim, err := solver.New(testSolverConfig(), testParams(c))
		if err != nil {
			t.Fatal(err)
		}
		base := heatVector(testParams(c))
		for sim.StepIndex() < testSteps {
			if err := sim.StepOnce(); err != nil {
				t.Fatal(err)
			}
			step := sim.StepIndex()
			in := make([]float32, 0, len(base)+1)
			for _, v := range base {
				in = append(in, float32(v))
			}
			in = append(in, float32(float64(step)*testDt))
			field := sim.Field()
			out := make([]float32, len(field))
			for j, v := range field {
				out[j] = float32(v)
			}
			r := (c + step) % csMembers
			streams[r] = append(streams[r], buffer.Sample{SimID: c, Step: step, Input: in, Output: out})
		}
	}
	return &streams
}

type chaosSnap struct{ seen, unseen []buffer.Sample }

// chaosRef is one boundary of the piecewise reference trajectory: trainer
// state plus each participating rank's buffer snapshot.
type chaosRef struct {
	flat     []float32
	weights  []byte
	optState []byte
	batches  int
	samples  int
	bufs     map[int]*chaosSnap
}

// chaosPhase runs the reference trainer for one membership stretch — the
// given global ranks over the in-process backend, which is pinned
// bit-identical to the per-epoch TCP groups the elastic members form —
// from an optional start point to maxBatches.
func chaosPhase(t *testing.T, ranks []int, streams *[csMembers][]buffer.Sample, start *chaosRef, maxBatches int) *chaosRef {
	t.Helper()
	tcfg := testConfig(1, csSims, buffer.FIFOKind).Trainer
	bufs := make([]*buffer.Blocking, len(ranks))
	for i, r := range ranks {
		bb := buffer.NewBlockingArena(buffer.NewFIFO(0), tcfg.Normalizer.InputDim(), tcfg.Normalizer.OutputDim())
		testbuf.Put(t, bb, streams[r]...)
		bb.EndReception()
		if start != nil {
			snap := start.bufs[r]
			bb.ReplaceContents(func(_, _ []buffer.Sample) ([]buffer.Sample, []buffer.Sample) {
				return snap.seen, snap.unseen
			})
		}
		bufs[i] = bb
	}
	tcfg.Ranks = len(ranks)
	tcfg.MaxBatches = maxBatches
	tr, err := core.NewTrainer(tcfg, bufs)
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
	ref := &chaosRef{
		flat:     append([]float32(nil), tr.Network().FlatParams()...),
		weights:  w,
		optState: o,
		batches:  tr.Metrics().Telemetry().Value(telemetry.Batches),
		samples:  tr.Metrics().Telemetry().Value(telemetry.Samples),
		bufs:     make(map[int]*chaosSnap, len(ranks)),
	}
	for i, r := range ranks {
		s := &chaosSnap{}
		bufs[i].WithLock(func(p *buffer.Policy) {
			s.seen, s.unseen = p.Snapshot()
		})
		ref.bufs[r] = s
	}
	return ref
}

// waitIngested blocks until the member's rank has received want distinct
// time steps — the ingestion barrier that pins per-rank arrival order. For
// the doomed member the wait also ends when the kill fires: its remaining
// share is dropped by the clients and never arrives.
func waitIngested(t *testing.T, srv *Server, want int, killed <-chan struct{}) {
	t.Helper()
	testwait.Until(t, fmt.Sprintf("the ingestion barrier at %d time steps", want), func() bool {
		select {
		case <-killed: // nil, so never ready, for a member that is not doomed
			return true
		default:
			return srv.receivedOnRank(0) >= want
		}
	})
}

// TestElasticServerChaosKillReform is the unified-runtime headline test:
// a 3-member elastic server group ingests a live ensemble, member 1 is
// killed at the epoch-1 batch-6 boundary (past the committed batch-4 group
// checkpoint), and the survivors must re-form at a higher epoch, roll back
// to batch 4 with their ingest state intact, keep serving the reconnecting
// clients (including ones launched after the death, which dial the
// survivors only), finish the schedule, and match the piecewise in-process
// ddp.Comm reference bit for bit.
func TestElasticServerChaosKillReform(t *testing.T) {
	dir := t.TempDir()
	coord, err := elastic.NewCoordinator(elastic.CoordinatorConfig{
		Addr:        "127.0.0.1:0",
		World:       csMembers,
		Dir:         dir,
		FormTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	srvs := make([]*Server, csMembers)
	var killOnce sync.Once
	killed := make(chan struct{})
	for m := range srvs {
		cfg := testConfig(1, csSims, buffer.FIFOKind)
		cfg.Trainer.MaxBatches = csMaxBatches
		cfg.CheckpointDir = dir
		cfg.CheckpointEveryBatches = csCkptEvery
		cfg.Elastic = &ElasticConfig{
			MemberID:       m,
			Coordinator:    coord.Addr(),
			InitialMembers: csMembers,
			RingOptions: func(int) transport.RingOptions {
				return transport.RingOptions{IOTimeout: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond}
			},
		}
		if m == 1 {
			cfg.Trainer.OnLocalBatchEnd = func(_, batches int) {
				if srvs[1].Metrics().Telemetry().Value(telemetry.GroupEpoch) == 1 && batches == csKillBatch {
					killOnce.Do(func() {
						testchaos.Kill(srvs[1].member)
						close(killed)
					})
				}
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[m] = srv
	}

	runErrs := make([]error, csMembers)
	var wg sync.WaitGroup
	for m, srv := range srvs {
		wg.Add(1)
		go func(m int, srv *Server) {
			defer wg.Done()
			runErrs[m] = srv.Run(context.Background())
		}(m, srv)
	}

	addrs := make([]string, csMembers)
	for m, srv := range srvs {
		addrs[m] = srv.Addrs()[0]
	}

	// Stream the ensemble one simulation at a time. After sim 8 every rank
	// holds exactly 24 samples — precisely enough for member 1 to train to
	// the batch-6 kill boundary and no further — so the kill is awaited
	// there, and every later client starts with member 1 dead and must
	// come up through the survivors-only dial path.
	exp := make([]int, csMembers)
	for c := 0; c < csSims; c++ {
		job := testJob(srvs[0], c, testSteps)
		job.Client.ServerAddrs, job.Client.Reconnect = addrs, true
		if err := client.Run(context.Background(), job); err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		for step := 1; step <= testSteps; step++ {
			exp[(c+step)%csMembers]++
		}
		for m := range srvs {
			var kc <-chan struct{}
			if m == 1 {
				kc = killed
			}
			waitIngested(t, srvs[m], exp[m], kc)
		}
		if c == 8 {
			testwait.Recv(t, killed, "member 1 to be killed at the batch-6 boundary")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()

	if !errors.Is(runErrs[1], elastic.ErrKilled) {
		t.Fatalf("killed member returned %v, want ErrKilled", runErrs[1])
	}
	for _, m := range []int{0, 2} {
		if runErrs[m] != nil {
			t.Fatalf("survivor %d: %v", m, runErrs[m])
		}
		snap := srvs[m].Metrics().Telemetry().Snapshot()
		if e := snap.Counters[telemetry.GroupEpoch]; e < 2 {
			t.Fatalf("survivor %d group epoch %d, want ≥ 2", m, e)
		}
		if snap.Counters[telemetry.Reforms] < 1 {
			t.Fatalf("survivor %d saw no re-formation", m)
		}
		if e, ok := snap.Last(telemetry.Reform); !ok || e.Batch != csCkptEvery {
			t.Fatalf("survivor %d rolled back to %+v, want batch %d", m, e, csCkptEvery)
		}
	}
	if got := srvs[0].Metrics().Telemetry().Value(telemetry.Batches); got != csMaxBatches {
		t.Fatalf("survivor 0 trained %d batches, want %d", got, csMaxBatches)
	}

	// Piecewise reference: all three ranks to the committed batch-4
	// checkpoint, then the survivors from that state to the end.
	streams := chaosStreams(t)
	ph1 := chaosPhase(t, []int{0, 1, 2}, streams, nil, csCkptEvery)
	ph2 := chaosPhase(t, []int{0, 2}, streams, ph1, csMaxBatches)
	for _, m := range []int{0, 2} {
		got := srvs[m].Trainer().Network().FlatParams()
		if len(got) != len(ph2.flat) {
			t.Fatalf("survivor %d weight count %d, want %d", m, len(got), len(ph2.flat))
		}
		for i := range ph2.flat {
			if got[i] != ph2.flat[i] {
				t.Fatalf("survivor %d weight %d diverged: %v, want %v", m, i, got[i], ph2.flat[i])
			}
		}
	}
}
