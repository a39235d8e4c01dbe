//go:build amd64

package tensor

//go:noescape
func adamSumBlocksAVX2(values, m, v []float32, srcs, zero [][]float32, off, blocks int, scale, alpha, b1, omb1, b2, omb2, eps float32)

// adamSumRangeAVX2 runs the whole 8-element blocks of [lo, hi) through the
// kernel and the tail through the portable update.
func adamSumRangeAVX2(values, m, v []float32, srcs, zero [][]float32, lo, hi int, scale, alpha, b1, b2, eps float32) {
	blocks := (hi - lo) / 8
	if blocks > 0 {
		adamSumBlocksAVX2(values, m, v, srcs, zero, lo, blocks, scale, alpha, b1, 1-b1, b2, 1-b2, eps)
	}
	adamSumRangeGo(values, m, v, srcs, zero, lo+8*blocks, hi, scale, alpha, b1, b2, eps)
}

// adamRangeAVX2 is AdamStep on the same kernel: one source, scaled by 1
// (exact for every value; a signaling NaN comes out quiet, as the update's
// first product would leave it anyway), nothing cleared.
func adamRangeAVX2(values, grads, m, v []float32, alpha, b1, b2, eps float32) {
	srcs := [1][]float32{grads}
	blocks := len(grads) / 8
	if blocks > 0 {
		adamSumBlocksAVX2(values, m, v, srcs[:], nil, 0, blocks, 1, alpha, b1, 1-b1, b2, 1-b2, eps)
	}
	n := blocks * 8
	adamRangeGo(values[n:], grads[n:], m[n:], v[n:], alpha, b1, b2, eps)
}

// factorSrc is one source as the factor kernels read it: X's column of the
// call's first weight row and the first column of the call's panel in the
// source's copy of DZ (both nil with no batch rows), and its batch rows.
type factorSrc struct {
	x, dz *float32
	k     int
}

// adamFactorAVX2 runs the update of AdamFactorStep over rows × 8·blocks
// elements of a weight; adam_amd64.s has the contract.
//
//go:noescape
func adamFactorAVX2(values, m, v []float32, srcs []factorSrc, rows, blocks, ldx, ldz, ldw int, scale, alpha, b1, omb1, b2, omb2, eps float32)

// maxFactorSrcs is the most sources one kernel call sums (ranks of one
// process); more run on the portable loop.
const maxFactorSrcs = 32

// factorL1 is the bytes of DZ copies one kernel call reads once per weight
// row: its column panel is as wide as that allows, so the panel stays in L1
// from row to row.
const factorL1 = 32 << 10

// adamFactorRangeAVX2 is AdamFactorStep's kernel at the avx2 and avx512
// levels. It runs elements [lo, hi) of the weight — a partial first row,
// the whole rows, a partial last row, each a run of rows — one column panel
// at a time: the panel's 8-column blocks through adamFactorAVX2, then a
// tail of under eight columns through the portable loop. The lanes are
// independent and each chain is the same FMA sequence in either, so the
// split changes no bit. Where a source's product takes the naive GEMM
// kernel (whose order is Go's: a compiler may fuse it), or there are more
// than maxFactorSrcs sources, the whole range runs portable.
func adamFactorRangeAVX2(values, m, v []float32, srcs []Factors, dz []float32, lo, hi int, scale, alpha, b1, b2, eps float32) {
	in, cols, k := srcs[0].X.Cols, srcs[0].DZ.Cols, 0
	blocked := len(srcs) <= maxFactorSrcs
	for _, f := range srcs {
		blocked = blocked && (f.X.Rows == 0 || useBlocked(gemmTNAdd, in, cols, f.X.Rows))
		k += f.X.Rows
	}
	if !blocked {
		adamFactorRangeGo(values, m, v, srcs, dz, lo, hi, scale, alpha, b1, b2, eps)
		return
	}
	panel := max(64, factorL1/(4*max(k, 1))&^63)
	var desc [maxFactorSrcs]factorSrc
	for lo < hi {
		i, j0 := lo/cols, lo%cols
		rows, j1 := 1, min(cols, j0+hi-lo)
		if j0 == 0 && hi-lo >= cols {
			rows, j1 = (hi-lo)/cols, cols
		}
		for p0 := j0; p0 < j1; p0 += panel {
			p1 := min(p0+panel, j1)
			j := p0
			if blocks := (p1 - j) / 8; blocks > 0 {
				factorBlocks(values, m, v, srcs, dz, &desc, i, j, rows, blocks, scale, alpha, b1, b2, eps)
				j += 8 * blocks
			}
			for r := i; r < i+rows; r++ {
				adamFactorRangeGo(values, m, v, srcs, dz, r*cols+j, r*cols+p1, scale, alpha, b1, b2, eps)
			}
		}
		lo += (rows-1)*cols + j1 - j0
	}
}

// factorBlocks points desc at weight row i and column j and runs one kernel
// call over rows rows and blocks blocks of 8 columns.
func factorBlocks(values, m, v []float32, srcs []Factors, dz []float32, desc *[maxFactorSrcs]factorSrc, i, j, rows, blocks int, scale, alpha, b1, b2, eps float32) {
	in, cols := srcs[0].X.Cols, srcs[0].DZ.Cols
	ldz, at := cols+factorPad, 0
	for s, f := range srcs {
		desc[s] = factorSrc{k: f.X.Rows}
		if f.X.Rows > 0 {
			desc[s].x, desc[s].dz = &f.X.Data[i], &dz[at+j]
		}
		at += f.X.Rows * ldz
	}
	e := i*cols + j
	adamFactorAVX2(values[e:], m[e:], v[e:], desc[:len(srcs)], rows, blocks, 4*in, 4*ldz, 4*cols, scale, alpha, b1, 1-b1, b2, 1-b2, eps)
}
