package tensor

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// factorCase is one AdamFactorStep differential: an in×out weight, one
// batch of rows[s] rows per source, summed in the order of rows, over
// elements [lo, hi) of the weight.
type factorCase struct {
	in, out int
	rows    []int
	lo, hi  int
}

// factorRef is what AdamFactorStep replaces: each source's Xᵀ·DZ formed by
// MatMulATBAdd into a zero slab, then AdamSumStep over the slabs in order.
func factorRef(values, m, v []float32, srcs []Factors, lo, hi int, scale, alpha, b1, b2, eps float32) {
	slabs := make([][]float32, len(srcs))
	for s, f := range srcs {
		g := New(f.X.Cols, f.DZ.Cols)
		(*Team)(nil).MatMulATBAdd(g, f.X, f.DZ)
		slabs[s] = g.Data
	}
	(*Team)(nil).AdamSumStep(values, m, v, slabs, nil, lo, hi, scale, alpha, b1, b2, eps)
}

// factorDraw selects what checkFactorStep draws: normal values of mixed
// magnitudes throughout (rounding-sensitive sums), NaNs, infinities,
// subnormals and values about 2⁻¹²⁶ a third of the time in the state and
// the factors, or the first with dead units.
type factorDraw int

const (
	drawClean factorDraw = iota
	drawSpecial
	drawDead
)

// checkFactorStep runs tm.AdamFactorStep and factorRef for steps steps from
// one random state, the factors redrawn between steps, and requires values,
// m and v to match everywhere, inside the range and out. Under drawDead one
// source in three is all zeros from the second step on, so the moments it
// alone feeds decay and are flushed.
func checkFactorStep(t *testing.T, tm *Team, seed uint64, c factorCase, draw factorDraw, steps int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(c.in*1000+c.out)))
	pool, factors := adamPool(rng, draw == drawSpecial), adamPool(rng, draw == drawSpecial)
	if draw != drawSpecial {
		for i := range factors {
			factors[i] = adamNormal(rng)
		}
	}
	n := c.in * c.out
	var ka, ra [3][]float32 // values, m, v: kernel and reference
	for k := range ka {
		ka[k], ra[k] = make([]float32, n), make([]float32, n)
		adamFill(rng, ka[k], pool)
		copy(ra[k], ka[k])
	}
	srcs := make([]Factors, len(c.rows))
	for s, r := range c.rows {
		srcs[s] = Factors{X: New(r, c.in), DZ: New(r, c.out)}
	}
	scale := 1 / float32(len(c.rows))
	for step := 1; step <= steps; step++ {
		for s, f := range srcs {
			adamFill(rng, f.X.Data, factors)
			adamFill(rng, f.DZ.Data, factors)
			if draw == drawDead && step > 1 && s%3 == 2 {
				Zero(f.DZ.Data)
			}
		}
		tm.AdamFactorStep(ka[0], ka[1], ka[2], srcs, c.lo, c.hi, scale, 1e-3, 0.9, 0.999, 1e-8)
		factorRef(ra[0], ra[1], ra[2], srcs, c.lo, c.hi, scale, 1e-3, 0.9, 0.999, 1e-8)
		for k, name := range []string{"values", "m", "v"} {
			for e := range ka[k] {
				if !sameBits(ka[k][e], ra[k][e]) {
					t.Fatalf("%s %dx%d rows %v [%d, %d) step %d: %s[%d] (row %d col %d) = %#08x, reference %#08x",
						kern.name, c.in, c.out, c.rows, c.lo, c.hi, step, name, e, e/c.out, e%c.out, math.Float32bits(ka[k][e]), math.Float32bits(ra[k][e]))
				}
			}
		}
	}
}

// orders returns every ordering of xs.
func orders(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{xs}
	}
	var all [][]int
	for i := range xs {
		rest := append(append([]int(nil), xs[:i]...), xs[i+1:]...)
		for _, o := range orders(rest) {
			all = append(all, append([]int{xs[i]}, o...))
		}
	}
	return all
}

// TestAdamFactorStepIsGemmThenSumStep states AdamFactorStep by the passes it
// replaces — MatMulATBAdd into a zero slab per source, then AdamSumStep over
// the slabs in order — bit for bit, at every kernel level, inline and on a
// team. The shapes sit on both sides of naiveMaxWork (and mix the two in one
// call), of blockK (batches of 256 and 257 rows, one or two chains), of
// eight columns and of the kernel's column panel; batches are full, tail
// and empty (a rank with no batch adds +0); one to three sources come in
// every order; ranges start and end mid-row and mid-block; the state and
// the factors carry NaNs, infinities and subnormals, or dead units whose
// moments are flushed. Under -short each case takes one of the three draws,
// in turn, and the portable level skips the batches past blockK.
func TestAdamFactorStepIsGemmThenSumStep(t *testing.T) {
	tm := NewTeam(2)
	t.Cleanup(tm.Close)
	shapes := []struct {
		in, out int
		rows    []int
	}{
		{3, 5, []int{10, 2, 0}},     // naive: 150 multiply-adds
		{6, 16, []int{10, 3, 0}},    // blocked beside naive beside empty
		{6, 40, []int{10, 7, 1}},    // column tails
		{5, 24, []int{257, 256, 0}}, // two chains, one chain, none
		{3, 72, []int{9, 300, 0}},   // a 64-column panel and a part panel
		{7, 300, []int{10, 10}},     // 64-column groups, a tail
	}
	forEachLevel(t, func(t *testing.T) {
		steps := 3
		if softwareFMA() {
			steps = 2
		}
		seed := uint64(1)
		draws, cases := []factorDraw{drawClean, drawSpecial, drawDead}, 0
		for _, sh := range shapes {
			if softwareFMA() && testing.Short() && slices.Max(sh.rows) > blockK {
				continue
			}
			n := sh.in * sh.out
			for nsrc := 1; nsrc <= len(sh.rows); nsrc++ {
				for _, o := range orders(sh.rows[:nsrc]) {
					for _, r := range [][2]int{{0, n}, {3, n - 5}, {sh.out + 9, 2*sh.out + 3}, {n - 1, n}, {7, 7}} {
						cases++
						for d, draw := range draws {
							seed++
							if testing.Short() && cases%len(draws) != d {
								continue
							}
							lo := min(r[0], n)
							checkFactorStep(t, nil, seed, factorCase{sh.in, sh.out, o, lo, max(lo, min(r[1], n))}, draw, steps)
						}
					}
				}
			}
		}
		// On a team, above the fan-out threshold: chunks start mid-row.
		big := factorCase{in: 67, out: 1000, rows: []int{10, 9}, lo: 5, hi: 67*1000 - 3}
		if softwareFMA() || testing.Short() {
			big = factorCase{in: 57, out: 1000, rows: []int{10}, lo: 5, hi: 57*1000 - 3}
		}
		checkFactorStep(t, tm, 99, big, drawClean, 1)
	})
}

// TestAdamFactorStepForcedDrivers repeats a few shapes with MatMulATBAdd
// forced onto the blocked driver (tiny products take the kernel) and onto
// the naive one (everything takes the portable loop).
func TestAdamFactorStepForcedDrivers(t *testing.T) {
	for name, mode := range map[string]gemmModeT{"blocked": gemmBlocked, "naive": gemmNaive} {
		t.Run(name, func(t *testing.T) {
			forceGemmMode(t, mode)
			for i, c := range []factorCase{
				{2, 8, []int{3, 1}, 0, 16},
				{3, 5, []int{4}, 1, 14},
				{6, 40, []int{10, 0, 7}, 3, 237},
			} {
				for _, draw := range []factorDraw{drawClean, drawSpecial} {
					checkFactorStep(t, nil, uint64(i+1), c, draw, 2)
				}
			}
		})
	}
}

// FuzzFactorKernel is the byte-seeded differential of the factor update
// against MatMulATBAdd into zero slabs and AdamSumStep, at the active kernel
// level. The first 12 bytes choose α, ε, β1 and β2 as in FuzzAdamKernel;
// then one byte each the weight's rows (1–9) and columns (1–160, past the
// kernel's 64-column groups), the source count (1–3), each
// source's batch rows (0–12, or 250–262 when the byte's top bit is set),
// and two the range. The rest are the raw bits of the factors, then of w,
// m and v, tiled when short. NaNs are folded onto one pattern.
func FuzzFactorKernel(f *testing.F) {
	seed := make([]byte, 20, 20+4*64)
	binary.LittleEndian.PutUint32(seed[0:], math.Float32bits(1e-3))
	binary.LittleEndian.PutUint32(seed[4:], math.Float32bits(1e-8))
	binary.LittleEndian.PutUint16(seed[8:], 58983)  // β1 ≈ 0.9
	binary.LittleEndian.PutUint16(seed[10:], 65471) // β2 ≈ 0.999
	copy(seed[12:], []byte{5, 19, 2, 10, 0x80 | 7, 0, 3, 90})
	for _, x := range []float32{0.5, 0, 0x1p-125, 0x1p-124, adamNaN, float32(math.Inf(-1)), float32(math.Inf(1)), 0x1p-140, -3, 1e-3, 7, -0.25} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(x))
	}
	f.Add(seed)
	wide := append([]byte(nil), seed...)
	copy(wide[12:], []byte{2, 135, 1, 10, 0, 0, 7, 250})
	f.Add(wide)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 20 {
			return
		}
		float := func(b []byte) float32 {
			x := math.Float32frombits(binary.LittleEndian.Uint32(b))
			if x != x {
				return adamNaN
			}
			return x
		}
		finite := func(x, otherwise float32) float32 {
			if x != x || x-x != 0 {
				return otherwise
			}
			return x
		}
		alpha, eps := finite(float(data[0:]), 1e-3), finite(float(data[4:]), 1e-8)
		b1 := (float32(binary.LittleEndian.Uint16(data[8:])) + 1) / 65538
		b2 := (float32(binary.LittleEndian.Uint16(data[10:])) + 1) / 65538
		in, out, nsrc := 1+int(data[12]%9), 1+int(data[13]%160), 1+int(data[14]%3)
		srcs := make([]Factors, nsrc)
		for s := range srcs {
			r := int(data[15+s] & 0x7f % 13)
			if data[15+s]&0x80 != 0 {
				r += 250
			}
			srcs[s] = Factors{X: New(r, in), DZ: New(r, out)}
		}
		n := in * out
		lo := int(data[18]) % (n + 1)
		hi := lo + int(data[19])%(n-lo+1)
		words := data[20:]
		next := 0
		draw := func(dst []float32) {
			for i := range dst {
				if len(words) < 4 {
					dst[i] = float32(i%7) - 3
					continue
				}
				dst[i] = float(words[4*(next%(len(words)/4)):])
				next++
			}
		}
		for _, s := range srcs {
			draw(s.X.Data)
			draw(s.DZ.Data)
		}
		var ka, ra [3][]float32
		for k := range ka {
			ka[k], ra[k] = make([]float32, n), make([]float32, n)
			draw(ka[k])
			copy(ra[k], ka[k])
		}
		scale := 1 / float32(nsrc)
		for step := 0; step < 2; step++ {
			(*Team)(nil).AdamFactorStep(ka[0], ka[1], ka[2], srcs, lo, hi, scale, alpha, b1, b2, eps)
			factorRef(ra[0], ra[1], ra[2], srcs, lo, hi, scale, alpha, b1, b2, eps)
			for k := range ka {
				for e := range ka[k] {
					if !sameBits(ka[k][e], ra[k][e]) {
						t.Fatalf("step %d: %dx%d [%d, %d) slab %d [%d] kernel %#08x, reference %#08x (α %g β1 %g β2 %g ε %g)",
							step, in, out, lo, hi, k, e, math.Float32bits(ka[k][e]), math.Float32bits(ra[k][e]), alpha, b1, b2, eps)
					}
				}
			}
		}
	})
}
