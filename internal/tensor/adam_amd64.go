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
