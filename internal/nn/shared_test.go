package nn

import (
	"math"
	"sync"
	"testing"

	"melissa/internal/tensor"
)

// TestCloneSharedAliasesWeights: the shared clone must point at the original
// parameter storage (no copy) and produce bit-identical forward outputs,
// including after the original's weights change under it.
func TestCloneSharedAliasesWeights(t *testing.T) {
	base := ArchitectureMLP(4, []int{8, 8}, 6, 11)
	shared := base.CloneShared()
	bp, sp := base.Params(), shared.Params()
	if len(bp) != len(sp) {
		t.Fatalf("param count %d vs %d", len(sp), len(bp))
	}
	for i := range bp {
		if &bp[i].Value.Data[0] != &sp[i].Value.Data[0] {
			t.Fatalf("param %q: clone has private storage", bp[i].Name)
		}
	}
	if &shared.FlatParams()[0] != &base.FlatParams()[0] || shared.FlatGrads() != nil {
		t.Fatal("a shared clone must view the original's value slab and have no gradient slab")
	}
	x := tensor.New(3, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)*0.25 - 1
	}
	check := func() {
		want := base.Clone().Forward(x) // private net, same weights
		got := shared.Forward(x)
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("forward diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
	check()
	for i := range base.FlatParams() { // weight update propagates to the clone
		base.FlatParams()[i] *= 1.5
	}
	check()
}

// TestCloneSharedConcurrentForward: many shared clones of one network must
// run Forward concurrently without racing (run under -race).
func TestCloneSharedConcurrentForward(t *testing.T) {
	base := ArchitectureMLP(4, []int{16}, 8, 13)
	x := tensor.New(2, 4)
	for i := range x.Data {
		x.Data[i] = float32(i) * 0.1
	}
	want := base.Clone().Forward(x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		clone := base.CloneShared()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				got := clone.Forward(x)
				for i := range want.Data {
					if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
						t.Errorf("concurrent forward diverges at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloneReplicaSharesValuesNotGrads: a training replica reads and writes
// the original's value slab — a write through either FlatParams or any
// Param.Value is seen by all — and accumulates into a gradient slab nobody
// else sees. All have the same bucket layout, so the trainer can all-reduce
// each replica's FlatGrads and update the one FlatParams.
func TestCloneReplicaSharesValuesNotGrads(t *testing.T) {
	base := ArchitectureMLP(4, []int{8, 8}, 6, 11)
	nets := []*Network{base, base.CloneReplica(), base.CloneReplica()}
	for r, n := range nets {
		if &n.FlatParams()[0] != &base.FlatParams()[0] || len(n.FlatParams()) != base.NumParams() {
			t.Fatalf("replica %d does not train on the original's value slab", r)
		}
		if len(n.FlatGrads()) != base.NumParams() {
			t.Fatalf("replica %d gradient slab has %d floats, want %d", r, len(n.FlatGrads()), base.NumParams())
		}
		for o := 0; o < r; o++ {
			if &n.FlatGrads()[0] == &nets[o].FlatGrads()[0] {
				t.Fatalf("replicas %d and %d share a gradient slab", o, r)
			}
		}
		if got, want := n.GradBuckets(), base.GradBuckets(); len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("replica %d buckets %v, want %v", r, got, want)
		}
		off := 0
		for i, p := range n.Params() {
			if &p.Value.Data[0] != &base.FlatParams()[off] || &p.Grad.Data[0] != &n.FlatGrads()[off] {
				t.Fatalf("replica %d param %q is not a view of its slabs at %d", r, p.Name, off)
			}
			if p.Name != base.Params()[i].Name || p.Grad.Rows != p.Value.Rows || p.Grad.Cols != p.Value.Cols {
				t.Fatalf("replica %d param %d: %q %dx%d grad %dx%d", r, i, p.Name, p.Value.Rows, p.Value.Cols, p.Grad.Rows, p.Grad.Cols)
			}
			off += len(p.Value.Data)
		}
	}

	x, y := tensor.New(3, 4), tensor.New(3, 6)
	for i := range x.Data {
		x.Data[i] = float32(i)*0.25 - 1
	}
	loss := NewMSELoss()
	backward := func(n *Network) {
		n.ZeroGrad()
		pred := n.Forward(x)
		n.Backward(loss.Backward(pred, y))
	}
	// Gradient writes go through none: replica 1 back-propagates, the others'
	// slabs stay zero; then everyone computes the same gradient on its own.
	backward(nets[1])
	for _, r := range []int{0, 2} {
		for i, g := range nets[r].FlatGrads() {
			if g != 0 {
				t.Fatalf("replica 1's backward wrote replica %d's gradient %d", r, i)
			}
		}
	}
	for _, n := range nets {
		backward(n)
	}
	for r, n := range nets {
		for i, g := range n.FlatGrads() {
			if math.Float32bits(g) != math.Float32bits(base.FlatGrads()[i]) {
				t.Fatalf("replica %d gradient %d: %v, original %v", r, i, g, base.FlatGrads()[i])
			}
		}
	}
	// Value writes go through every one: an update of the slab through
	// replica 2 is what the original and replica 1 forward with next.
	for i := range nets[2].FlatParams() {
		nets[2].FlatParams()[i] *= 1.5
	}
	want := base.Clone().Forward(x)
	for r, n := range nets {
		got := n.Forward(x)
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("replica %d forward diverges at %d after a shared update", r, i)
			}
		}
	}
}
