package opt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"melissa/internal/nn"
	"melissa/internal/tensor"
)

// TestAdamMatchesReference checks two Adam steps against hand-computed
// values with constant gradient g=1, lr=0.1.
func TestAdamMatchesReference(t *testing.T) {
	w, g := []float32{1}, []float32{1}
	a := NewAdam(0.1)

	// Step 1: m=0.1, v=0.001; mhat=1, vhat=1 → w -= 0.1*1/(1+eps) ≈ 0.9.
	a.StepFlat(w, g)
	if got := float64(w[0]); math.Abs(got-0.9) > 1e-5 {
		t.Fatalf("after step 1: %v, want ≈0.9", got)
	}

	// Step 2 (same grad): m=0.19, v=0.001999; bc1=0.19, bc2=0.001999
	// mhat=1, vhat=1 → w ≈ 0.8.
	a.StepFlat(w, g)
	if got := float64(w[0]); math.Abs(got-0.8) > 1e-4 {
		t.Fatalf("after step 2: %v, want ≈0.8", got)
	}
	if a.step != 2 {
		t.Fatalf("step count %d", a.step)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 with gradient 2(w-3).
	w, g := []float32{0}, []float32{0}
	a := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		a.StepFlat(w, g)
	}
	if got := float64(w[0]); math.Abs(got-3) > 0.01 {
		t.Fatalf("converged to %v, want 3", got)
	}
}

func TestSetLR(t *testing.T) {
	a := NewAdam(1e-3)
	if a.lr != 1e-3 {
		t.Fatal("initial LR wrong")
	}
	a.SetLR(5e-4)
	if a.lr != 5e-4 {
		t.Fatal("SetLR failed")
	}
}

func TestHalvingSchedule(t *testing.T) {
	h := Halving{Initial: 1e-3, EverySamples: 10000, Min: 2.5e-4}
	cases := []struct {
		samples int
		want    float64
	}{
		{0, 1e-3},
		{9999, 1e-3},
		{10000, 5e-4},
		{19999, 5e-4},
		{20000, 2.5e-4},
		{30000, 2.5e-4},   // floor reached
		{1000000, 2.5e-4}, // stays at floor
	}
	for _, c := range cases {
		if got := h.LR(c.samples); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("LR(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestHalvingNoFloor(t *testing.T) {
	h := Halving{Initial: 1, EverySamples: 10}
	if got := h.LR(40); got != 1.0/16 {
		t.Fatalf("LR(40) = %v, want 1/16", got)
	}
}

func TestPaperSchedule(t *testing.T) {
	h := PaperSchedule()
	if h.LR(0) != 1e-3 || h.LR(10000) != 5e-4 || h.LR(100000) != 2.5e-4 {
		t.Fatal("paper schedule wrong")
	}
}

func TestConstantSchedule(t *testing.T) {
	c := Constant(0.01)
	if c.LR(0) != 0.01 || c.LR(1e6) != 0.01 {
		t.Fatal("constant schedule wrong")
	}
}

// TestAdamCheckpointResume verifies that saving optimizer state
// mid-training and resuming produces the identical trajectory as an
// uninterrupted run — the property server checkpoints rely on (§3.1).
func TestAdamCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	grads := make([]float32, 40)
	for i := range grads {
		grads[i] = float32(rng.NormFloat64())
	}

	run := func(restartAt int) float32 {
		w, grad := []float32{1}, []float32{0}
		a := NewAdam(0.05)
		for i, g := range grads {
			if restartAt > 0 && i == restartAt {
				var buf bytes.Buffer
				if err := a.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				a = NewAdam(0.05)
				if err := a.LoadState(&buf); err != nil {
					t.Fatal(err)
				}
			}
			grad[0] = g
			a.StepFlat(w, grad)
		}
		return w[0]
	}

	direct := run(0)
	resumed := run(20)
	if direct != resumed {
		t.Fatalf("resume diverged: %v vs %v", direct, resumed)
	}
}

func TestAdamLoadStateRejectsGarbage(t *testing.T) {
	a := NewAdam(0.1)
	if err := a.LoadState(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("expected error")
	}
}

// TestAdamOnNetwork trains the paper's MLP shape (tiny) on a smooth target
// and requires an order-of-magnitude loss reduction.
func TestAdamOnNetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	net := nn.ArchitectureMLP(3, []int{32}, 4, 11)
	loss := nn.NewMSELoss()
	a := NewAdam(1e-2)

	x := tensor.New(64, 3)
	target := tensor.New(64, 4)
	for r := 0; r < 64; r++ {
		for c := 0; c < 3; c++ {
			x.Row(r)[c] = float32(rng.Float64())
		}
		for c := 0; c < 4; c++ {
			target.Row(r)[c] = x.Row(r)[0]*float32(c) + x.Row(r)[1]
		}
	}
	initial := loss.Forward(net.Forward(x), target)
	for i := 0; i < 300; i++ {
		net.ZeroGrad()
		net.Backward(loss.Backward(net.Forward(x), target))
		a.StepFlat(net.FlatParams(), net.FlatGrads())
	}
	final := loss.Forward(net.Forward(x), target)
	if final > initial/10 {
		t.Fatalf("Adam failed to train: %v -> %v", initial, final)
	}
}

// adamState serializes an optimizer state by hand: segment i holds ms[i]
// and vs[i]. One segment is what SaveState writes and all LoadState takes.
func adamState(step uint64, ms, vs [][]float32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, step)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ms)))
	for i := range ms {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ms[i])))
		for _, slab := range [][]float32{ms[i], vs[i]} {
			for _, x := range slab {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
			}
		}
	}
	return b
}

// TestAdamLoadStateLayout loads the layout SaveState writes and requires
// the same bits back, across a staging-buffer boundary (stateChunk+3
// floats); any other segment count is refused with the optimizer untouched.
func TestAdamLoadStateLayout(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	n := stateChunk + 3
	m, v := make([]float32, n), make([]float32, n)
	for i := range m {
		m[i], v[i] = float32(rng.NormFloat64()), float32(rng.Float64())
	}
	m[1], v[1] = 0x1p-140, 0x1p-149 // a stuck checkpoint loads as written
	single := adamState(41, [][]float32{m}, [][]float32{v})
	a := NewAdam(0.1)
	if err := a.LoadState(bytes.NewReader(single)); err != nil {
		t.Fatal(err)
	}
	if a.step != 41 || len(a.m) != n || len(a.v) != n {
		t.Fatalf("step %d, %d/%d moments", a.step, len(a.m), len(a.v))
	}
	for i := range m {
		if math.Float32bits(a.m[i]) != math.Float32bits(m[i]) || math.Float32bits(a.v[i]) != math.Float32bits(v[i]) {
			t.Fatalf("moment %d = (%g, %g), want (%g, %g)", i, a.m[i], a.v[i], m[i], v[i])
		}
	}
	var out bytes.Buffer
	if err := a.SaveState(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), single) {
		t.Fatal("SaveState does not reproduce the layout it was loaded from")
	}

	for name, state := range map[string][]byte{
		"no segment":   adamState(41, nil, nil),
		"two segments": adamState(41, [][]float32{m[:7], m[7:]}, [][]float32{v[:7], v[7:]}),
	} {
		if err := a.LoadState(bytes.NewReader(state)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if a.step != 41 || len(a.m) != n {
			t.Fatalf("%s: failed load changed the optimizer", name)
		}
	}
}

// TestAdamLoadStateLyingLength gives LoadState a header that claims 2³⁰
// floats over 16 bytes of payload: an error, the optimizer untouched, and
// nowhere near the 8 GB the claim names allocated on the way.
func TestAdamLoadStateLyingLength(t *testing.T) {
	state := adamState(7, [][]float32{{1, 2}}, [][]float32{{3, 4}})
	binary.LittleEndian.PutUint32(state[12:], 1<<30)
	a := NewAdam(0.1)
	a.StepFlat([]float32{1}, []float32{1})
	m0 := a.m[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := a.LoadState(bytes.NewReader(state))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("allocated %d bytes for a 16-byte payload", got)
	}
	if a.step != 1 || len(a.m) != 1 || a.m[0] != m0 {
		t.Fatalf("failed load changed the optimizer: step %d, m %v", a.step, a.m)
	}
}

// FuzzAdamLoadState feeds the decoder truncated, oversized and garbage
// states: it must return (never panic), must not hold more floats than the
// input has bytes for, and whatever it accepts must survive a save/load
// round trip unchanged.
func FuzzAdamLoadState(f *testing.F) {
	good := adamState(3, [][]float32{{1, 2, 3, 4}}, [][]float32{{5, 6, 7, 8}})
	f.Add(adamState(3, [][]float32{{1, 2, 3}, {4}}, [][]float32{{5, 6, 7}, {8}}))
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte(nil), good...), 9, 9, 9))
	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lying[12:], 1<<30)
	f.Add(lying)
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAdam(0.1)
		if err := a.LoadState(bytes.NewReader(data)); err != nil {
			if a.step != 0 || a.m != nil || a.v != nil {
				t.Fatalf("failed load changed the optimizer: %v", err)
			}
			return
		}
		if len(a.m) != len(a.v) || 8*len(a.m) > len(data) {
			t.Fatalf("%d/%d moments from %d bytes", len(a.m), len(a.v), len(data))
		}
		var out bytes.Buffer
		if err := a.SaveState(&out); err != nil {
			t.Fatal(err)
		}
		b := NewAdam(0.1)
		if err := b.LoadState(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("reloading a saved state: %v", err)
		}
		if b.step != a.step || len(b.m) != len(a.m) {
			t.Fatalf("round trip: step %d→%d, %d→%d moments", a.step, b.step, len(a.m), len(b.m))
		}
		for i := range a.m {
			if math.Float32bits(a.m[i]) != math.Float32bits(b.m[i]) || math.Float32bits(a.v[i]) != math.Float32bits(b.v[i]) {
				t.Fatalf("round trip changed moment %d", i)
			}
		}
	})
}

// TestShardedStepEqualsFull: L aliased handles, each stepping its own slice
// of one value slab (concurrently, as the local ranks of a trainer do),
// leave values, moments and SaveState bytes equal to one handle's StepFlat
// on the same gradients — the update is element-wise, so how the slab is cut
// cannot show. The length is odd so slices end off any vector width, and the
// learning rate changes mid-way on every handle.
func TestShardedStepEqualsFull(t *testing.T) {
	const total, steps = 1037, 60
	for _, L := range []int{2, 3, 4} {
		rng := rand.New(rand.NewPCG(uint64(L), 5))
		wFull, wShard := make([]float32, total), make([]float32, total)
		for i := range wFull {
			wFull[i] = rng.Float32() - 0.5
		}
		copy(wShard, wFull)
		full := NewAdam(1e-2)
		handles := make([]*Adam, L)
		handles[0] = NewAdam(1e-2)
		for l := 1; l < L; l++ {
			handles[l] = handles[0].Alias(total)
		}
		g := make([]float32, total)
		for s := 0; s < steps; s++ {
			for i := range g {
				g[i] = rng.Float32() - 0.5
			}
			if s == steps/2 {
				full.SetLR(2.5e-3)
				for _, h := range handles {
					h.SetLR(2.5e-3)
				}
			}
			full.StepFlat(wFull, g)
			done := make(chan struct{}, L)
			for l, h := range handles {
				go func() {
					h.StepSum(wShard, []GradRange{{Lo: total * l / L, Hi: total * (l + 1) / L, Srcs: [][]float32{g}}}, nil, 1)
					done <- struct{}{}
				}()
			}
			for range handles {
				<-done
			}
		}
		var want bytes.Buffer
		if err := full.SaveState(&want); err != nil {
			t.Fatal(err)
		}
		for l, h := range handles {
			if &h.m[0] != &handles[0].m[0] || &h.v[0] != &handles[0].v[0] {
				t.Fatalf("L=%d: handle %d no longer aliases handle 0's moments", L, l)
			}
			var got bytes.Buffer
			if err := h.SaveState(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("L=%d: handle %d state differs from the full step's", L, l)
			}
		}
		for i := range wFull {
			if math.Float32bits(wFull[i]) != math.Float32bits(wShard[i]) {
				t.Fatalf("L=%d: value %d: sharded %v, full %v", L, i, wShard[i], wFull[i])
			}
		}
	}
}

// TestAdamStateMustFit: a state that exists is never reallocated to fit
// another slab — that would discard restored moments without a word, and
// un-share a handle from its aliases.
func TestAdamStateMustFit(t *testing.T) {
	a := NewAdam(1e-3)
	a.StepFlat(make([]float32, 8), make([]float32, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("StepFlat on a slab of another length did not panic")
		}
		if a.Len() != 8 {
			t.Fatalf("state reallocated to %d floats", a.Len())
		}
	}()
	a.StepFlat(make([]float32, 9), make([]float32, 9))
}

// PaperSchedule returns the schedule used in the paper's experiments:
// initial 1e-3, halved every 10,000 samples, floor 2.5e-4 (§4.5).
func PaperSchedule() Halving {
	return Halving{Initial: 1e-3, EverySamples: 10000, Min: 2.5e-4}
}
