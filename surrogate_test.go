package melissa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"melissa/internal/nn"
)

// freshSurrogate builds an untrained (seeded random) surrogate for a
// problem — checkpoint and prediction mechanics don't need a training run.
func freshSurrogate(prob Problem) *Surrogate {
	cfg := DefaultConfig()
	cfg.Problem = prob
	cfg.GridN = 8
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{24, 24}
	if prob.Name() == GrayScottName {
		cfg.Dt = 1
	}
	norm := prob.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	return newSurrogate(net, norm, surrogateMeta(cfg, prob))
}

// midPoint returns a mid-range parameter vector for a problem.
func midPoint(prob Problem) []float64 {
	min, max := prob.ParamBounds()
	p := make([]float64, len(min))
	for i := range p {
		p[i] = (min[i] + max[i]) / 2
	}
	return p
}

// TestCheckpointRoundTripBothProblems: Save → LoadSurrogate must restore a
// bit-identical predictor for every registered problem, with no
// architecture arguments supplied at load time.
func TestCheckpointRoundTripBothProblems(t *testing.T) {
	for _, name := range Problems() {
		prob, err := ProblemByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := freshSurrogate(prob)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := LoadSurrogate(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if loaded.Meta().Problem != name {
			t.Fatalf("%s: restored as %q", name, loaded.Meta().Problem)
		}
		p := midPoint(prob)
		a := s.Predict(p, 3)
		b := loaded.Predict(p, 3)
		if len(a) != len(b) || len(a) != s.OutputDim() {
			t.Fatalf("%s: prediction shapes %d/%d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: loaded surrogate predicts differently at %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestRawWeightsRejected: a raw nn weight payload (no metadata block) is
// refused by the self-describing loader, not misparsed.
func TestRawWeightsRejected(t *testing.T) {
	s := freshSurrogate(Heat())
	var raw bytes.Buffer
	if err := s.net.SaveWeights(&raw); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(&raw); err == nil {
		t.Fatal("LoadSurrogate accepted a raw weights payload")
	}
}

// TestTrainedCheckpointRoundTrip covers the full path: an online-trained
// Gray–Scott surrogate survives PublishSurrogate/LoadSurrogateFile
// bit-identically.
func TestTrainedCheckpointRoundTrip(t *testing.T) {
	cfg := tinyGrayScottConfig()
	res, err := runOnline(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/gs.surrogate"
	if err := PublishSurrogate(res.Surrogate, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSurrogateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := midPoint(GrayScott())
	a := res.Surrogate.Predict(p, 4)
	b := loaded.Predict(p, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trained round-trip diverged at %d", i)
		}
	}
}

// TestPredictZeroAlloc is the allocation gate for the satellite scratch
// path: steady-state PredictInto with a reused destination must not touch
// the heap.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s := freshSurrogate(Heat())
	params := midPoint(Heat())
	dst := make([]float64, 0, s.OutputDim())
	// Warm up the network's pooled activations for the 1-row shape.
	dst = s.PredictInto(dst, params, 0.02)
	dst = s.PredictInto(dst, params, 0.02)
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.PredictInto(dst, params, 0.02)
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %v times per call, want 0", allocs)
	}
}

func TestPredictIntoMatchesPredict(t *testing.T) {
	s := freshSurrogate(GrayScott())
	params := midPoint(GrayScott())
	a := s.Predict(params, 2)
	dst := make([]float64, 3) // too short: must be grown, not truncated
	b := s.PredictInto(dst, params, 2)
	if len(b) != s.OutputDim() {
		t.Fatalf("PredictInto returned %d values", len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PredictInto diverges from Predict at %d", i)
		}
	}
}

// TestPredictBatchChunks: a batch larger than one pooled replica holds runs
// in chunks, and every row still equals PredictInto's answer bit for bit;
// a wrong-width query past the first chunk is reported by its own index.
func TestPredictBatchChunks(t *testing.T) {
	for _, prob := range []Problem{Heat(), GrayScott()} {
		s := freshSurrogate(prob)
		rng := rand.New(rand.NewPCG(7, 11))
		min, max := prob.ParamBounds()
		n := 2*predictChunk + 22
		params := make([][]float64, n)
		ts := make([]float64, n)
		for i := range params {
			params[i] = make([]float64, len(min))
			for j := range params[i] {
				params[i][j] = min[j] + rng.Float64()*(max[j]-min[j])
			}
			ts[i] = float64(rng.IntN(6)+1) * s.Meta().Dt
		}
		batch, err := s.PredictBatch(params, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range params {
			single := s.PredictInto(nil, params[i], ts[i])
			for j := range single {
				if math.Float64bits(batch[i][j]) != math.Float64bits(single[j]) {
					t.Fatalf("%s: row %d value %d: batch %v, single %v", prob.Name(), i, j, batch[i][j], single[j])
				}
			}
		}
		bad := predictChunk + 36
		params[bad] = params[bad][:len(params[bad])-1]
		_, err = s.PredictBatch(params, ts)
		if want := fmt.Sprintf("query %d has", bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: wrong-width query %d gave error %v, want it named", prob.Name(), bad, err)
		}
	}
}

// TestPredictParallel drives Predict and PredictBatch from many goroutines
// at once (under -race in CI) and checks every concurrent result against
// the serial answer — the regression gate for the lock-free pooled
// replicas.
func TestPredictParallel(t *testing.T) {
	s := freshSurrogate(Heat())
	params := midPoint(Heat())
	want := s.Predict(params, 0.03)
	wantBatch, err := s.PredictBatch([][]float64{params, params}, []float64{0.01, 0.05})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 25
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			dst := make([]float64, 0, s.OutputDim())
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					dst = s.PredictInto(dst, params, 0.03)
					for j := range want {
						if dst[j] != want[j] {
							errCh <- fmt.Errorf("worker %d iter %d: Predict[%d] = %v, want %v", w, i, j, dst[j], want[j])
							return
						}
					}
				} else {
					got, err := s.PredictBatch([][]float64{params, params}, []float64{0.01, 0.05})
					if err != nil {
						errCh <- err
						return
					}
					for r := range wantBatch {
						for j := range wantBatch[r] {
							if got[r][j] != wantBatch[r][j] {
								errCh <- fmt.Errorf("worker %d iter %d: PredictBatch[%d][%d] diverged", w, i, r, j)
								return
							}
						}
					}
				}
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// paperSurrogateFile publishes the paper surrogate (heat on a 32×32 grid,
// two hidden layers of 256: 330,752 parameters) with seed 42 into a
// temporary directory and returns its path and the network it was saved
// from.
func paperSurrogateFile(tb testing.TB) (string, *nn.Network) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Problem = Heat()
	cfg.GridN = 32
	cfg.Hidden = []int{256, 256}
	cfg.Seed = 42
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	sur, err := SurrogateFromNetwork(net, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "paper.mlsg")
	if err := PublishSurrogate(sur, path); err != nil {
		tb.Fatal(err)
	}
	return path, net
}

// TestLoadSurrogateFileOneSlab: loading the paper surrogate reads its
// weights bit for bit into one value slab and allocates little beside it —
// no initial weights drawn and overwritten, no gradient slab, no staging
// copy of the blob.
func TestLoadSurrogateFileOneSlab(t *testing.T) {
	path, saved := paperSurrogateFile(t)
	sur, err := LoadSurrogateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := sur.net.FlatParams(), saved.FlatParams()
	if len(got) != len(want) {
		t.Fatalf("loaded %d parameters, saved %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("parameter %d loaded as %v, saved as %v", i, got[i], want[i])
		}
	}
	if sur.net.FlatGrads() != nil {
		t.Fatal("a loaded surrogate has a gradient slab")
	}

	const loads = 10
	slab := uint64(4 * len(want))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range loads {
		if _, err := LoadSurrogateFile(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / loads; float64(per) > 1.1*float64(slab) {
		t.Fatalf("a load allocates %d bytes, more than 1.1× its %d-byte value slab", per, slab)
	}
}

// TestLoadSurrogateRefusesTruncatedWeights: a checkpoint cut short
// anywhere in its weights is an error from both entry points — from the
// bytes-present check or from the decode into the slab — never a panic.
func TestLoadSurrogateRefusesTruncatedWeights(t *testing.T) {
	path, _ := paperSurrogateFile(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.mlsg")
	for _, short := range []int{1, 4, 100, 4 * 1024, len(blob) / 2} {
		part := blob[:len(blob)-short]
		if err := os.WriteFile(cut, part, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSurrogate(bytes.NewReader(part)); err == nil {
			t.Fatalf("LoadSurrogate took a checkpoint %d bytes short", short)
		}
		if _, err := LoadSurrogateFile(cut); err == nil {
			t.Fatalf("LoadSurrogateFile took a checkpoint %d bytes short", short)
		}
	}
}

// BenchmarkLoadSurrogate times LoadSurrogateFile on the paper surrogate:
// what melissa-serve pays at start-up and on every hot reload.
func BenchmarkLoadSurrogate(b *testing.B) {
	path, _ := paperSurrogateFile(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadSurrogateFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSurrogateHoldsWeightsOnly: however a network becomes a Surrogate —
// trained online, snapshotted from a live trainer network, or loaded — it
// keeps no gradient slab, the live network keeps its own, and the pooled
// replicas extra callers draw alias the one weight slab.
func TestSurrogateHoldsWeightsOnly(t *testing.T) {
	res, err := runOnline(t, tinyGrayScottConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := nn.ArchitectureMLP(3, []int{8}, 4, 1)
	cfg := DefaultConfig()
	cfg.Problem = Heat()
	snap, err := SurrogateFromNetwork(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.FlatGrads() == nil {
		t.Fatal("SurrogateFromNetwork released the caller's gradients")
	}
	var buf bytes.Buffer
	if err := res.Surrogate.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSurrogate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Surrogate{"RunOnline": res.Surrogate, "SurrogateFromNetwork": snap, "LoadSurrogate": loaded} {
		if s.net.FlatGrads() != nil {
			t.Fatalf("%s: surrogate retains a gradient slab", name)
		}
		for _, p := range s.net.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: param %q retains its gradient", name, p.Name)
			}
		}
		extra := s.replicas.New().(*Replica)
		for i, p := range extra.net.Params() {
			if &p.Value.Data[0] != &s.net.Params()[i].Value.Data[0] {
				t.Fatalf("%s: extra replica copied param %q", name, p.Name)
			}
		}
	}
}

func TestPredictWrongDimPanics(t *testing.T) {
	s := freshSurrogate(Heat())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong parameter count")
		}
	}()
	s.Predict([]float64{1, 2}, 0.1)
}

// BenchmarkPredict measures the single-query hot path with the reusable
// scratch destination — the companion of the allocation gate above.
func BenchmarkPredict(b *testing.B) {
	cfg := DefaultConfig()
	norm := Heat().Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	s := newSurrogate(net, norm, surrogateMeta(cfg, Heat()))
	params := midPoint(Heat())
	dst := make([]float64, 0, s.OutputDim())
	dst = s.PredictInto(dst, params, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.PredictInto(dst, params, 0.05)
	}
}

// BenchmarkPredictParallel measures concurrent serving throughput: with
// the pooled replicas, parallel callers scale across cores instead of
// serializing on one shared scratch.
func BenchmarkPredictParallel(b *testing.B) {
	cfg := DefaultConfig()
	norm := Heat().Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	s := newSurrogate(net, norm, surrogateMeta(cfg, Heat()))
	params := midPoint(Heat())
	var warm [1][]float64
	warm[0] = s.Predict(params, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]float64, 0, s.OutputDim())
		for pb.Next() {
			dst = s.PredictInto(dst, params, 0.05)
		}
	})
}

// surrogateHeader encodes a checkpoint metadata block (see Save) with no
// weight payload behind it.
func surrogateHeader(problem string, gridN, steps uint32, hidden []uint32) []byte {
	var b bytes.Buffer
	b.WriteString(surrogateMagic)
	binary.Write(&b, binary.LittleEndian, uint32(surrogateVersion))
	writeString(&b, problem)
	binary.Write(&b, binary.LittleEndian, []uint32{gridN, steps})
	binary.Write(&b, binary.LittleEndian, math.Float64bits(0.01))
	binary.Write(&b, binary.LittleEndian, uint32(len(hidden)))
	binary.Write(&b, binary.LittleEndian, hidden)
	binary.Write(&b, binary.LittleEndian, uint64(7))
	return b.Bytes()
}

// FuzzLoadSurrogate feeds the checkpoint decoder truncated, lying and
// garbage files — melissa-serve runs it on whatever file it is pointed at.
// It must return an error or a surrogate that predicts; it must never
// panic, and what it allocates must be sized by the bytes present, not by
// what the header claims.
func FuzzLoadSurrogate(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Problem, cfg.GridN, cfg.StepsPerSim, cfg.Hidden = Heat(), 2, 4, []int{3}
	norm := cfg.Problem.Normalizer(cfg)
	tiny := newSurrogate(nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), 1), norm, surrogateMeta(cfg, cfg.Problem))
	var valid bytes.Buffer
	if err := tiny.Save(&valid); err != nil {
		f.Fatal(err)
	}
	huge := make([]uint32, 1<<10)
	for i := range huge {
		huge[i] = 1 << 20
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5])
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(valid.Bytes()[:12])
	f.Add(surrogateHeader(HeatName, 1<<16, 100, huge[:3])) // 60 bytes asking for terabytes
	f.Add(surrogateHeader(HeatName, 32, 100, huge))
	f.Add(surrogateHeader(HeatName, 1<<16, 100, nil))
	f.Add([]byte("MLSG and then nothing of use"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sur, err := LoadSurrogate(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; len(data) < 1<<10 && grew > 64<<20 {
			t.Fatalf("a %d-byte checkpoint made the loader allocate %d MB", len(data), grew>>20)
		}
		if err != nil {
			return
		}
		if got := sur.Predict(make([]float64, sur.ParamDim()), 0); len(got) != sur.OutputDim() {
			t.Fatalf("loaded surrogate predicts %d values, declares %d", len(got), sur.OutputDim())
		}
	})
}

// TestLoadSurrogateRefusesUnbackedHeader: the largest architecture the
// header fields admit — 1,024 hidden layers of 2²⁰ units — arrives with no
// weights behind it. Both entry points refuse it by arithmetic on the
// header and the bytes present, without building any of it.
func TestLoadSurrogateRefusesUnbackedHeader(t *testing.T) {
	huge := make([]uint32, 1<<10)
	for i := range huge {
		huge[i] = 1 << 20
	}
	header := surrogateHeader(HeatName, 32, 100, huge)
	path := filepath.Join(t.TempDir(), "huge.mlsg")
	if err := os.WriteFile(path, header, 0o644); err != nil {
		t.Fatal(err)
	}
	// One hidden layer of 2²⁰ units is 4 GB of float32 under the parameter
	// cap, so only the bytes-present check stands between it and the heap.
	if err := os.WriteFile(path+".1", surrogateHeader(HeatName, 32, 100, huge[:1]), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errReader := LoadSurrogate(bytes.NewReader(header))
	_, errFile := LoadSurrogateFile(path)
	_, errOneLayer := LoadSurrogateFile(path + ".1")
	runtime.ReadMemStats(&after)
	if errReader == nil || errFile == nil || errOneLayer == nil {
		t.Fatalf("unbacked headers accepted: reader %v, file %v, one layer %v", errReader, errFile, errOneLayer)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusing three unbacked headers allocated %d MB", grew>>20)
	}
}

// TestLoadSurrogateRefusesBadDt: a header whose time step is not finite and
// > 0 would leave the time input un-normalized, so it does not load.
func TestLoadSurrogateRefusesBadDt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Problem, cfg.GridN, cfg.StepsPerSim, cfg.Hidden = Heat(), 2, 4, []int{3}
	norm := cfg.Problem.Normalizer(cfg)
	tiny := newSurrogate(nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), 1), norm, surrogateMeta(cfg, cfg.Problem))
	var valid bytes.Buffer
	if err := tiny.Save(&valid); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(bytes.NewReader(valid.Bytes())); err != nil {
		t.Fatal(err)
	}
	// magic | version | problem string | gridN | steps | dt
	at := 4 + 4 + 4 + len(HeatName) + 4 + 4
	for _, dt := range []float64{math.NaN(), 0, -1, math.Inf(1)} {
		data := bytes.Clone(valid.Bytes())
		binary.LittleEndian.PutUint64(data[at:], math.Float64bits(dt))
		if _, err := LoadSurrogate(bytes.NewReader(data)); err == nil {
			t.Fatalf("checkpoint with Dt %g loaded", dt)
		}
	}
}
