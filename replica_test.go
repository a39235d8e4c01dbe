package melissa

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"melissa/internal/nn"
)

// randQueries draws n in-range float32 queries for a problem.
func randQueries(prob Problem, n int, rng *rand.Rand) (params [][]float32, ts []float32) {
	min, max := prob.ParamBounds()
	params = make([][]float32, n)
	ts = make([]float32, n)
	for i := range params {
		p := make([]float32, len(min))
		for j := range p {
			p[j] = float32(min[j] + rng.Float64()*(max[j]-min[j]))
		}
		params[i] = p
		ts[i] = float32(rng.IntN(6)) + 1
	}
	return params, ts
}

// TestReplicaBatchInvariant: an answer is a function of (weights, query)
// alone. Each query is answered alone, then in the middle of a partial
// batch and in a full batch, by two replicas with different MaxBatch — 8,
// whose every batch takes the GEMM's in-place driver, and 40, whose full
// batch takes the packed one — and must come back with the same bits every
// time: the invariant the serving tier's micro-batcher and prediction cache
// are built on. Also sanity-checks the answers against the Predict
// reference path within floating-point tolerance (float64 staging there).
func TestReplicaBatchInvariant(t *testing.T) {
	for _, prob := range []Problem{Heat(), GrayScott()} {
		s := freshSurrogate(prob)
		rng := rand.New(rand.NewPCG(3, 5))
		params, ts := randQueries(prob, 40, rng)
		// Reference answers: each query alone on a replica of its own.
		ref := make([][]float32, len(params))
		alone := s.NewReplica(1)
		for q := range params {
			err := alone.PredictBatchRaw(1,
				func(int) ([]float32, float32) { return params[q], ts[q] },
				func(_ int, field []float32) { ref[q] = append([]float32(nil), field...) })
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, maxBatch := range []int{8, 40} {
			rep := s.NewReplica(maxBatch)
			for _, n := range []int{1, 2, 3, maxBatch/2 + 1, maxBatch - 1, maxBatch} {
				// Shift the queries so each batch size exercises different slots.
				off := rng.IntN(len(params))
				err := rep.PredictBatchRaw(n,
					func(i int) ([]float32, float32) { q := (off + i) % len(params); return params[q], ts[q] },
					func(i int, field []float32) {
						q := (off + i) % len(params)
						if len(field) != len(ref[q]) {
							t.Fatalf("%s n=%d: field length %d, want %d", prob.Name(), n, len(field), len(ref[q]))
						}
						for j := range field {
							if math.Float32bits(field[j]) != math.Float32bits(ref[q][j]) {
								t.Fatalf("%s MaxBatch %d n=%d slot %d query %d: field[%d] = %x, alone %x",
									prob.Name(), maxBatch, n, i, q, j, math.Float32bits(field[j]), math.Float32bits(ref[q][j]))
							}
						}
					})
				if err != nil {
					t.Fatalf("%s MaxBatch %d n=%d: %v", prob.Name(), maxBatch, n, err)
				}
			}
		}
		// Cross-check against the float64 Predict path within tolerance.
		for q := range params {
			p64 := make([]float64, len(params[q]))
			for j, v := range params[q] {
				p64[j] = float64(v)
			}
			want := s.Predict(p64, float64(ts[q]))
			for j := range want {
				if d := math.Abs(float64(ref[q][j]) - want[j]); d > 1e-3+1e-3*math.Abs(want[j]) {
					t.Fatalf("%s query %d: field[%d] = %v, Predict gives %v", prob.Name(), q, j, ref[q][j], want[j])
				}
			}
		}
	}
}

// TestReplicaSharesWeights: NewReplica must not copy the weight slab — the
// whole point of replicas is N workers against one model's memory.
func TestReplicaSharesWeights(t *testing.T) {
	s := freshSurrogate(Heat())
	rep := s.NewReplica(4)
	sp := s.net.Params()
	rp := rep.net.Params()
	if len(sp) != len(rp) {
		t.Fatalf("param count %d vs %d", len(rp), len(sp))
	}
	for i := range sp {
		if &sp[i].Value.Data[0] != &rp[i].Value.Data[0] {
			t.Fatalf("param %q: replica has private weight storage", sp[i].Name)
		}
	}
}

// TestReplicaBatchZeroAlloc gates the serving compute hot path: forwards
// run at their true row count, so a replica sees every n up to MaxBatch in
// any order, and once the largest has sized the activation buffers no batch
// call may allocate.
func TestReplicaBatchZeroAlloc(t *testing.T) {
	s := freshSurrogate(Heat())
	const maxBatch = 32
	rep := s.NewReplica(maxBatch)
	rng := rand.New(rand.NewPCG(7, 9))
	params, ts := randQueries(Heat(), maxBatch, rng)
	query := func(i int) ([]float32, float32) { return params[i], ts[i] }
	emit := func(i int, field []float32) { _ = field[0] }
	for i := 0; i < 2; i++ { // size the activation buffers, warm the GEMM scratch
		if err := rep.PredictBatchRaw(maxBatch, query, emit); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	avg := testing.AllocsPerRun(4*maxBatch, func() {
		n = n%maxBatch + 1
		if err := rep.PredictBatchRaw(n, query, emit); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("batches of 1..%d rows allocate %.2f allocs/op, want 0", maxBatch, avg)
	}
}

// TestReplicaNarrowOutput: a surrogate whose OutputDim is smaller than its
// InputDim (a near-scalar field) must still batch-predict — regression for
// staging the raw input row in a buffer sized only to the output.
func TestReplicaNarrowOutput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Problem = Heat()
	cfg.GridN = 1 // OutputDim 1 < InputDim (ParamDim+1)
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{8}
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	s := newSurrogate(net, norm, surrogateMeta(cfg, cfg.Problem))
	if s.OutputDim() >= norm.InputDim() {
		t.Fatalf("test wants OutputDim < InputDim, got %d >= %d", s.OutputDim(), norm.InputDim())
	}
	rep := s.NewReplica(4)
	rng := rand.New(rand.NewPCG(1, 2))
	params, ts := randQueries(Heat(), 4, rng)
	emitted := 0
	err := rep.PredictBatchRaw(4,
		func(i int) ([]float32, float32) { return params[i], ts[i] },
		func(i int, field []float32) {
			emitted++
			if len(field) != s.OutputDim() {
				t.Fatalf("field length %d, want %d", len(field), s.OutputDim())
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 4 {
		t.Fatalf("emit called %d times, want 4", emitted)
	}
}

// TestReplicaRejectsBadBatch: out-of-range sizes and wrong parameter counts
// must error without panicking mid-batch.
func TestReplicaRejectsBadBatch(t *testing.T) {
	s := freshSurrogate(Heat())
	rep := s.NewReplica(3)
	if rep.maxBatch != 3 {
		t.Fatalf("maxBatch = %d, want 3", rep.maxBatch)
	}
	noEmit := func(int, []float32) { t.Fatal("emit called for rejected batch") }
	if err := rep.PredictBatchRaw(0, nil, noEmit); err == nil {
		t.Fatal("batch of 0 accepted")
	}
	if err := rep.PredictBatchRaw(4, nil, noEmit); err == nil {
		t.Fatal("batch beyond MaxBatch accepted")
	}
	bad := func(i int) ([]float32, float32) { return []float32{1}, 1 }
	if err := rep.PredictBatchRaw(1, bad, noEmit); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
}

// TestPublishSurrogate: the atomic publisher must produce a loadable
// self-describing checkpoint and leave no temporary droppings behind.
func TestPublishSurrogate(t *testing.T) {
	s := freshSurrogate(Heat())
	dir := t.TempDir()
	path := filepath.Join(dir, "surrogate.mlsg")
	for i := 0; i < 2; i++ { // second publish overwrites the first in place
		if err := PublishSurrogate(s, path); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadSurrogateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := midPoint(Heat())
	want := s.Predict(p, 1)
	got := loaded.Predict(p, 1)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("published checkpoint diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("publish left %d files in dir, want 1", len(entries))
	}
}
