package tensor

import (
	"math/rand/v2"
	"testing"
)

// TestSharedBMatchesPerTilePacking pins that the shared-B driver (packs
// each k-slab's B panels once, cooperatively) is bit-identical to the
// original per-tile-packing driver it replaced for multi-row-tile outputs:
// same tile decomposition, same per-element accumulation order, only the
// packing reuse differs.
func TestSharedBMatchesPerTilePacking(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	shapes := []struct{ m, n, k int }{
		{65, 130, 300},               // tails on every axis, 2 k-slabs
		{256, 300, 10},               // training dW shape: 4 row tiles, short k
		{2 * blockM, blockN, blockK}, // exact block multiples
		{blockM + 1, 2*blockN + 3, 2*blockK + 5},
	}
	for _, kind := range []gemmKind{gemmNN, gemmNT, gemmTNAdd} {
		for _, sh := range shapes {
			var a, b *Matrix
			switch kind {
			case gemmNN:
				a, b = randMatrix(rng, sh.m, sh.k), randMatrix(rng, sh.k, sh.n)
			case gemmNT:
				a, b = randMatrix(rng, sh.m, sh.k), randMatrix(rng, sh.n, sh.k)
			case gemmTNAdd:
				a, b = randMatrix(rng, sh.k, sh.m), randMatrix(rng, sh.k, sh.n)
			}
			bias := make([]float32, sh.n)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			ep := EpNone
			if kind == gemmNN {
				ep = EpBiasReLU // epilogue only on the overwrite form
			}

			seed := randMatrix(rng, sh.m, sh.n) // gemmTNAdd accumulates
			want := New(sh.m, sh.n)
			copy(want.Data, seed.Data)
			got := New(sh.m, sh.n)
			copy(got.Data, seed.Data)

			// Reference: the per-tile-packing driver, run directly.
			rowTiles := (sh.m + blockM - 1) / blockM
			colTiles := (sh.n + blockN - 1) / blockN
			ref := task{op: opGemmTile, dst: want, a: a, b: b, bias: bias, gk: kind, ep: ep}
			gemmTileRange(&ref, 0, rowTiles*colTiles)

			(*Team)(nil).gemmSharedB(kind, got, a, b, bias, ep, sh.k, rowTiles, colTiles)

			if d := got.MaxAbsDiff(want); d != 0 {
				t.Fatalf("kind %d shape %dx%dx%d: shared-B diverges from per-tile packing by %v",
					kind, sh.m, sh.n, sh.k, d)
			}
		}
	}
}
