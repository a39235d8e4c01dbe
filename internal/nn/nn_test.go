package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"melissa/internal/tensor"
)

// maxAbsDiff returns the largest absolute element-wise difference between
// two matrices of one shape.
func maxAbsDiff(a, b *tensor.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i, v := range a.Data {
		if d := math.Abs(float64(v) - float64(b.Data[i])); d > max {
			max = d
		}
	}
	return max
}

// cloneMatrix returns a copy of m that later writes to m do not reach.
func cloneMatrix(m *tensor.Matrix) *tensor.Matrix {
	return &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data)}
}

func randBatch(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestDenseForwardShapeAndBias(t *testing.T) {
	d := ArchitectureMLP(3, nil, 2, 1).Layers[0]
	// Zero the weights, set the bias, and confirm broadcast.
	clear(d.w.Value.Data)
	copy(d.b.Value.Data, []float32{1, -2})
	x := randBatch(rand.New(rand.NewPCG(1, 1)), 4, 3)
	y := d.Forward(x)
	if y.Rows != 4 || y.Cols != 2 {
		t.Fatalf("output shape %dx%d", y.Rows, y.Cols)
	}
	for r := 0; r < 4; r++ {
		if y.Row(r)[0] != 1 || y.Row(r)[1] != -2 {
			t.Fatalf("bias broadcast wrong: row %d = %v", r, y.Row(r))
		}
	}
}

func TestDenseForwardMatchesManual(t *testing.T) {
	d := ArchitectureMLP(2, nil, 2, 2).Layers[0]
	copy(d.w.Value.Data, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.b.Value.Data, []float32{10, 20})
	x := &tensor.Matrix{Rows: 1, Cols: 2, Data: []float32{1, 1}}
	y := d.Forward(x)
	// y = [1+3+10, 2+4+20] = [14, 26]
	if y.Row(0)[0] != 14 || y.Row(0)[1] != 26 {
		t.Fatalf("got %v", y.Row(0))
	}
}

func TestReLU(t *testing.T) {
	x := &tensor.Matrix{Rows: 1, Cols: 4, Data: []float32{-1, 0, 2, -3}}
	y := reluForward(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("forward got %v", y.Data)
		}
	}
	dy := &tensor.Matrix{Rows: 1, Cols: 4, Data: []float32{5, 6, 7, 8}}
	dx := reluBackward(x, dy)
	wantDx := []float32{0, 0, 7, 0}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("backward got %v", dx.Data)
		}
	}
}

func TestMSELoss(t *testing.T) {
	l := NewMSELoss()
	pred := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float32{1, 2, 3, 4}}
	target := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float32{1, 2, 3, 6}}
	got := l.Forward(pred, target)
	if math.Abs(got-1) > 1e-9 { // (0+0+0+4)/4
		t.Fatalf("MSE = %v, want 1", got)
	}
	g := l.Backward(pred, target)
	// d/dpred = 2(pred-target)/4; only last element nonzero: 2*(-2)/4 = -1.
	if g.Data[3] != -1 || g.Data[0] != 0 {
		t.Fatalf("grad = %v", g.Data)
	}
}

func TestMSEVectorHelper(t *testing.T) {
	if got := MSE([]float32{1, 3}, []float32{1, 1}); got != 2 {
		t.Fatalf("MSE = %v, want 2", got)
	}
}

// numericalGrad computes dLoss/dTheta by central differences for a given
// scalar-producing closure.
func numericalGrad(theta []float32, loss func() float64) []float64 {
	const h = 1e-3
	grads := make([]float64, len(theta))
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + h
		lp := loss()
		theta[i] = orig - h
		lm := loss()
		theta[i] = orig
		grads[i] = (lp - lm) / (2 * h)
	}
	return grads
}

// TestGradCheckDense verifies backprop gradients against central
// differences for the paper's surrogate structure — a fused
// Dense(ReLU)→Dense→MSE chain, activation epilogue included.
func TestGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	net := ArchitectureMLP(3, []int{5}, 4, 7)
	x := randBatch(rng, 6, 3)
	target := randBatch(rng, 6, 4)
	loss := NewMSELoss()

	forward := func() float64 { return loss.Forward(net.Forward(x), target) }

	net.ZeroGrad()
	pred := net.Forward(x)
	net.Backward(loss.Backward(pred, target))

	for _, p := range net.Params() {
		numeric := numericalGrad(p.Value.Data, forward)
		for i, g := range p.Grad.Data {
			if math.Abs(float64(g)-numeric[i]) > 2e-3*(1+math.Abs(numeric[i])) {
				t.Fatalf("param %s[%d]: backprop %v vs numeric %v", p.Name, i, g, numeric[i])
			}
		}
	}
}

// TestGradCheckInput verifies the gradient the network returns with respect
// to its input, which downstream users rely on for adjoints (§1 of the
// paper highlights surrogate differentiability).
func TestGradCheckInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	net := ArchitectureMLP(4, []int{6}, 3, 23)
	x := randBatch(rng, 2, 4)
	target := randBatch(rng, 2, 3)
	loss := NewMSELoss()

	net.ZeroGrad()
	dx := net.Backward(loss.Backward(net.Forward(x), target))

	numeric := numericalGrad(x.Data, func() float64 { return loss.Forward(net.Forward(x), target) })
	for i := range x.Data {
		if math.Abs(float64(dx.Data[i])-numeric[i]) > 2e-3*(1+math.Abs(numeric[i])) {
			t.Fatalf("input grad [%d]: %v vs %v", i, dx.Data[i], numeric[i])
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	net := ArchitectureMLP(2, []int{3}, 2, 3)
	rng := rand.New(rand.NewPCG(1, 2))
	x := randBatch(rng, 4, 2)
	target := randBatch(rng, 4, 2)
	loss := NewMSELoss()

	net.ZeroGrad()
	net.Backward(loss.Backward(net.Forward(x), target))
	first := cloneMatrix(net.Params()[0].Grad)

	// Second backward without ZeroGrad must accumulate (double).
	net.Backward(loss.Backward(net.Forward(x), target))
	second := net.Params()[0].Grad
	for i := range first.Data {
		if math.Abs(float64(second.Data[i]-2*first.Data[i])) > 1e-4 {
			t.Fatalf("gradient accumulation broken at %d: %v vs 2*%v", i, second.Data[i], first.Data[i])
		}
	}

	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

func TestArchitectureMLPShape(t *testing.T) {
	// Paper §4.1: input 6, hidden 2×256, output 1M. We check the structure
	// and parameter count formula at reduced width.
	net := ArchitectureMLP(6, []int{256, 256}, 1024, 42)
	want := 6*256 + 256 + 256*256 + 256 + 256*1024 + 1024
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if len(net.Layers) != 3 { // two fused dense+relu, one linear dense
		t.Fatalf("layer count %d", len(net.Layers))
	}
	for i, relu := range []bool{true, true, false} {
		if net.Layers[i].relu != relu {
			t.Fatalf("layer %d fuses ReLU: %v, want %v", i, net.Layers[i].relu, relu)
		}
	}
}

// TestArchitectureMLPInitDigest pins the bits a seed draws for the paper
// surrogate: building in the slab draws the Xavier weights in the order
// separately allocated layers drew them, so every hash pinned on a trained
// network keeps its value.
func TestArchitectureMLPInitDigest(t *testing.T) {
	vals := ArchitectureMLP(6, []int{256, 256}, 1024, 42).FlatParams()
	const want = "83c6910a6bd670585ea05cc5da72dcd6f4607d8e6fb42b6b8d06b2bf69658493"
	if got := slabDigest(vals); got != want {
		t.Fatalf("initial weights digest %s, want %s", got, want)
	}
}

// slabDigest is the sha256 of a slab's little-endian bytes.
func slabDigest(vals []float32) string {
	b := make([]byte, 4*len(vals))
	tensor.PutF32LE(b, vals)
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestLoadMLPRoundTrip: LoadMLP gives back the saved weights bit for bit,
// in a network with every parameter a view of one value slab and no
// gradient slab, whose forward pass answers like the original's.
func TestLoadMLPRoundTrip(t *testing.T) {
	net := ArchitectureMLP(5, []int{70, 3}, 4100, 8) // a blob of several chunks
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMLP(&buf, 5, []int{70, 3}, 4100)
	if err != nil {
		t.Fatal(err)
	}
	if slabDigest(got.FlatParams()) != slabDigest(net.FlatParams()) {
		t.Fatal("loaded weights differ from the saved ones")
	}
	if got.FlatGrads() != nil {
		t.Fatal("a loaded network has a gradient slab")
	}
	off := 0
	for _, p := range got.Params() {
		if p.Grad != nil || &p.Value.Data[0] != &got.FlatParams()[off] {
			t.Fatalf("param %s is not a gradient-free view at slab offset %d", p.Name, off)
		}
		off += len(p.Value.Data)
	}
	x := randBatch(rand.New(rand.NewPCG(3, 4)), 2, 5)
	if d := maxAbsDiff(got.Forward(x), net.Forward(x)); d != 0 {
		t.Fatalf("loaded network answers %g away from the saved one", d)
	}
}

// TestLoadMLPRefusesTruncatedOrMismatched: a blob cut anywhere, a blob
// written for other widths, or a width below 1 is an error, never a panic
// or a half-filled network.
func TestLoadMLPRefusesTruncatedOrMismatched(t *testing.T) {
	var buf bytes.Buffer
	if err := ArchitectureMLP(3, []int{9}, 4, 1).SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, cut := range []int{0, 3, 12, 30, len(blob) - 4*(9*4+4), len(blob) - 1} {
		if net, err := LoadMLP(bytes.NewReader(blob[:cut]), 3, []int{9}, 4); err == nil || net != nil {
			t.Fatalf("a blob cut at %d of %d bytes loaded", cut, len(blob))
		}
	}
	if _, err := LoadMLP(bytes.NewReader(blob), 3, []int{8}, 4); err == nil {
		t.Fatal("a 3-9-4 blob loaded into a 3-8-4 network")
	}
	if _, err := LoadMLP(bytes.NewReader(blob), 3, []int{0}, 4); err == nil {
		t.Fatal("a network with a zero-width layer loaded")
	}
	if _, err := LoadMLP(bytes.NewReader(blob), 3, []int{9}, 4); err != nil {
		t.Fatal(err)
	}
}

func TestSeededInitDeterministic(t *testing.T) {
	a := ArchitectureMLP(4, []int{8, 8}, 3, 99)
	b := ArchitectureMLP(4, []int{8, 8}, 3, 99)
	c := ArchitectureMLP(4, []int{8, 8}, 3, 100)
	pa, pb, pc := a.Params(), b.Params(), c.Params()
	same, diff := true, false
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				same = false
			}
			if pa[i].Value.Data[j] != pc[i].Value.Data[j] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed produced different weights")
	}
	if !diff {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestXavierRange(t *testing.T) {
	init := NewInitializer(7)
	m := tensor.New(64, 64)
	init.XavierUniform(m, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("weight %v outside ±%v", v, limit)
		}
	}
	// Not all zero and roughly centered.
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	if math.Abs(s)/float64(len(m.Data)) > float64(limit)/4 {
		t.Fatalf("weights look biased: mean %v", s/float64(len(m.Data)))
	}
}

func TestCloneIndependence(t *testing.T) {
	net := ArchitectureMLP(3, []int{4}, 2, 1)
	clone := net.Clone()
	if clone.FlatGrads() != nil {
		t.Fatal("a clone has a gradient slab")
	}
	p0 := net.Params()[0]
	c0 := clone.Params()[0]
	for i := range p0.Value.Data {
		if p0.Value.Data[i] != c0.Value.Data[i] {
			t.Fatal("clone weights differ")
		}
	}
	p0.Value.Data[0] += 1
	if c0.Value.Data[0] == p0.Value.Data[0] {
		t.Fatal("clone shares weight storage")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	net := ArchitectureMLP(5, []int{7, 3}, 4, 8)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != net.WeightsSize() {
		t.Fatalf("SaveWeights wrote %d bytes, WeightsSize says %d", buf.Len(), net.WeightsSize())
	}
	other := ArchitectureMLP(5, []int{7, 3}, 4, 9) // different seed
	if err := other.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	pn, po := net.Params(), other.Params()
	for i := range pn {
		for j := range pn[i].Value.Data {
			if pn[i].Value.Data[j] != po[i].Value.Data[j] {
				t.Fatalf("param %d differs after roundtrip", i)
			}
		}
	}
}

func TestLoadWeightsRejectsWrongArchitecture(t *testing.T) {
	net := ArchitectureMLP(5, []int{7}, 4, 8)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := ArchitectureMLP(5, []int{8}, 4, 8)
	if err := wrong.LoadWeights(&buf); err == nil {
		t.Fatal("expected error loading into mismatched architecture")
	}
}

func TestLoadWeightsRejectsGarbage(t *testing.T) {
	net := ArchitectureMLP(2, []int{2}, 2, 1)
	if err := net.LoadWeights(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error")
	}
	if err := net.LoadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
}

// Property: save→load is the identity on weights for random architectures.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h1 := 1 + int(seed%7)
		h2 := 1 + int((seed>>8)%7)
		net := ArchitectureMLP(3, []int{h1, h2}, 2, seed)
		var buf bytes.Buffer
		if err := net.SaveWeights(&buf); err != nil {
			return false
		}
		out := ArchitectureMLP(3, []int{h1, h2}, 2, seed+1)
		if err := out.LoadWeights(&buf); err != nil {
			return false
		}
		pn, po := net.Params(), out.Params()
		for i := range pn {
			for j := range pn[i].Value.Data {
				if pn[i].Value.Data[j] != po[i].Value.Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedDenseMatchesUnfusedLayers pins the fused-epilogue contract: a
// Dense layer with ReLU fused must be bit-identical — forward output, every
// parameter gradient, and the input gradient — to the linear Dense layer
// followed by a separate ReLU pass that it replaced, because bias and
// activation are applied after the identical GEMM accumulation in both
// paths.
func TestFusedDenseMatchesUnfusedLayers(t *testing.T) {
	t.Run("relu", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(31, 1))
		fused := ArchitectureMLP(7, []int{33}, 5, 123)
		plain := fused.CloneReplica() // the same weights, gradients of its own
		plain.Layers[0].relu = false
		x := randBatch(rng, 9, 7)
		target := randBatch(rng, 9, 5)
		loss := NewMSELoss()

		fp := fused.Forward(x)
		fdx := fused.Backward(loss.Backward(fp, target))

		z := plain.Layers[0].Forward(x)
		pp := plain.Layers[1].Forward(reluForward(z))
		pdx := plain.Layers[0].Backward(reluBackward(z, plain.Layers[1].Backward(loss.Backward(pp, target))))

		if d := maxAbsDiff(fp, pp); d != 0 {
			t.Fatalf("forward differs by %v", d)
		}
		if d := maxAbsDiff(fdx, pdx); d != 0 {
			t.Fatalf("input gradient differs by %v", d)
		}
		for i, p := range fused.Params() {
			if d := maxAbsDiff(p.Grad, plain.Params()[i].Grad); d != 0 {
				t.Fatalf("param %s gradient differs by %v", p.Name, d)
			}
		}
	})
}

// TestTrainingReducesLoss is a smoke test that a few manual SGD steps on a
// tiny regression problem reduce the loss; full optimizer tests live in the
// opt package.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	net := ArchitectureMLP(2, []int{16}, 1, 5)
	loss := NewMSELoss()
	x := randBatch(rng, 32, 2)
	target := tensor.New(32, 1)
	for r := 0; r < 32; r++ {
		target.Row(r)[0] = x.Row(r)[0] + 0.5*x.Row(r)[1]
	}
	initial := loss.Forward(net.Forward(x), target)
	const lr = 0.05
	for step := 0; step < 200; step++ {
		net.ZeroGrad()
		pred := net.Forward(x)
		net.Backward(loss.Backward(pred, target))
		for _, p := range net.Params() {
			tensor.Axpy(-lr, p.Grad.Data, p.Value.Data)
		}
	}
	final := loss.Forward(net.Forward(x), target)
	if final > initial/10 {
		t.Fatalf("loss did not drop: %v -> %v", initial, final)
	}
}

// TestLayerParamRangesTileSlab verifies the bucket layout the ring's
// per-layer gradient collectives rely on: GradBuckets returns one range per
// layer in layer order, each exactly where that layer's weight and bias
// views lie, the ranges tiling [0, NumParams).
func TestLayerParamRangesTileSlab(t *testing.T) {
	net := ArchitectureMLP(3, []int{4, 5}, 2, 1)
	buckets := net.GradBuckets()
	if len(buckets) != len(net.Layers) {
		t.Fatalf("got %d buckets for %d layers", len(buckets), len(net.Layers))
	}
	grads, lo := net.FlatGrads(), 0
	for i, bk := range buckets {
		d := net.Layers[i]
		w, b := d.w.Grad.Data, d.b.Grad.Data
		if bk.Lo != lo || bk.Hi-bk.Lo != len(w)+len(b) {
			t.Fatalf("bucket %d is %+v, want %d elems starting at %d", i, bk, len(w)+len(b), lo)
		}
		if &w[0] != &grads[bk.Lo] || &b[len(b)-1] != &grads[bk.Hi-1] {
			t.Fatalf("bucket %+v is not where %s's gradients lie", bk, d.name)
		}
		lo = bk.Hi
	}
	if lo != net.NumParams() {
		t.Fatalf("buckets leave [%d,%d) uncovered", lo, net.NumParams())
	}
}

// TestReleaseGradsDropsActivations: a Clone or CloneShared of a network that
// has trained and validated keeps none of its gradients or activations — a
// surrogate must not pin the largest batch its trainer ever forwarded — and
// answers with the same bits, sizing its activations anew.
func TestReleaseGradsDropsActivations(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	net := ArchitectureMLP(3, []int{5}, 4, 7)
	x := randBatch(rng, 2, 3)
	want := cloneMatrix(net.Forward(x))
	net.Backward(randBatch(rng, 2, 4))
	net.Forward(randBatch(rng, 400, 3))
	for name, c := range map[string]*Network{"Clone": net.Clone(), "CloneShared": net.CloneShared()} {
		if c.FlatGrads() != nil {
			t.Fatalf("%s has a gradient slab", name)
		}
		for _, d := range c.Layers {
			if d.w.Grad != nil || d.b.Grad != nil || d.lastX != nil || d.lastY != nil || d.out.full.Data != nil || d.dx.full.Data != nil || d.dz.full.Data != nil {
				t.Fatalf("%s: %s carries training state", name, d.name)
			}
		}
		if got := c.Forward(x); maxAbsDiff(got, want) != 0 {
			t.Fatalf("%s answers %v, want %v", name, got.Data, want.Data)
		}
	}
}

// reluForward is the rectified linear activation of the paper's surrogate
// (§4.1: "2 hidden layers of 256 neurons with ReLU activation") as a
// separate pass over z: the reference the fused Dense epilogue is checked
// against.
func reluForward(z *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(z.Rows, z.Cols)
	for i, v := range z.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// reluBackward passes the gradient dy only where the input z was strictly
// positive.
func reluBackward(z, dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range z.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		}
	}
	return dx
}
