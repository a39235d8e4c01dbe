//go:build amd64

package tensor

//go:noescape
func adamBlocksAVX2(values, grads, m, v []float32, blocks int, alpha, b1, omb1, b2, omb2, eps float32)

// adamRangeAVX2 runs whole 8-element blocks through the kernel and the tail
// through the portable update.
func adamRangeAVX2(values, grads, m, v []float32, alpha, b1, b2, eps float32) {
	blocks := len(grads) / 8
	if blocks > 0 {
		adamBlocksAVX2(values, grads, m, v, blocks, alpha, b1, 1-b1, b2, 1-b2, eps)
	}
	n := blocks * 8
	adamRangeGo(values[n:], grads[n:], m[n:], v[n:], alpha, b1, b2, eps)
}
