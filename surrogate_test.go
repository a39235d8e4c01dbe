package melissa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"melissa/internal/nn"
	"melissa/internal/tensor"
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
	return newSurrogate(net.CloneShared(), norm, surrogateMeta(cfg, prob))
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

// TestPredictParallel calls Predict from many goroutines at once (under
// -race in CI) and checks every concurrent answer against a serial one bit
// for bit: each call runs on a replica of its own, so concurrent callers
// share nothing but the weights.
func TestPredictParallel(t *testing.T) {
	s := freshSurrogate(Heat())
	params := midPoint(Heat())
	want := s.Predict(params, 0.03)

	const workers = 8
	const iters = 25
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				got := s.Predict(params, 0.03)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						errCh <- fmt.Errorf("worker %d iter %d: Predict[%d] = %v, want %v", w, i, j, got[j], want[j])
						return
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
	net, cfg := paperNetwork()
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

// paperNetwork returns the paper surrogate's network, seed 42, and the
// configuration it was built with.
func paperNetwork() (*nn.Network, Config) {
	cfg := DefaultConfig()
	cfg.Problem = Heat()
	cfg.GridN = 32
	cfg.Hidden = []int{256, 256}
	cfg.Seed = 42
	norm := cfg.Problem.Normalizer(cfg)
	return nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed), cfg
}

// TestPublishedSurrogateDigest pins the bytes PublishSurrogate writes for
// the paper surrogate snapshotted from a fresh seed-42 network: however the
// snapshot is built, the published file does not change.
func TestPublishedSurrogateDigest(t *testing.T) {
	path, _ := paperSurrogateFile(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ce079f8093dacf35c1112c1787dde54c901d6732b52f67b2f9034ac1deaa0c30"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("published surrogate digest %s, want %s", got, want)
	}
}

// TestSurrogateFromNetworkCopiesOneSlab: a publish snapshot of the paper
// surrogate copies the value slab and allocates little beside it — no
// gradient slab, no second copy.
func TestSurrogateFromNetworkCopiesOneSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	net, cfg := paperNetwork()
	sur, err := SurrogateFromNetwork(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sur.net.FlatGrads() != nil {
		t.Fatal("a snapshot has a gradient slab")
	}
	const calls = 10
	slab := uint64(4 * net.NumParams())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := SurrogateFromNetwork(net, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; float64(per) > 1.1*float64(slab) {
		t.Fatalf("a snapshot allocates %d bytes, more than 1.1× its %d-byte value slab", per, slab)
	}
}

// BenchmarkSurrogateFromNetwork times the snapshot every -publish-every
// publish takes of the paper surrogate.
func BenchmarkSurrogateFromNetwork(b *testing.B) {
	net, cfg := paperNetwork()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SurrogateFromNetwork(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSurrogateHoldsWeightsOnly: however a network becomes a Surrogate —
// trained online, snapshotted from a live trainer network, or loaded — it
// keeps no gradient slab and none of the activations its trainer recorded
// (a surrogate must not pin the largest batch its trainer forwarded), the
// live network keeps its own, and the replicas callers build alias the one
// weight slab.
func TestSurrogateHoldsWeightsOnly(t *testing.T) {
	res, err := runOnline(t, tinyGrayScottConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := nn.ArchitectureMLP(3, []int{8}, 4, 1)
	live.Forward(tensor.New(300, 3))
	live.Backward(tensor.New(300, 4))
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
		for i, d := range s.net.Layers {
			v := reflect.ValueOf(d).Elem()
			for _, f := range []string{"lastX", "lastY", "out", "dx", "dz"} {
				if !v.FieldByName(f).IsZero() {
					t.Fatalf("%s: layer %d retains its trainer's %s", name, i, f)
				}
			}
		}
		extra := s.NewReplica(1)
		for i, p := range extra.net.Params() {
			if &p.Value.Data[0] != &s.net.Params()[i].Value.Data[0] {
				t.Fatalf("%s: replica copied param %q", name, p.Name)
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
	tiny := newSurrogate(nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), 1).CloneShared(), norm, surrogateMeta(cfg, cfg.Problem))
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
	tiny := newSurrogate(nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), 1).CloneShared(), norm, surrogateMeta(cfg, cfg.Problem))
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
