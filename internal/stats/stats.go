// Package stats provides the small statistical helpers the experiment
// harness uses: integer histograms (Figure 3) and series utilities
// (decimation for printable traces).
package stats

import "math"

// Histogram counts occurrences of integer values.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]int)} }

// Add increments the count for v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Count returns the count for v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Max returns the largest value with a nonzero count, 0 when empty.
func (h *Histogram) Max() int {
	max := 0
	for v := range h.counts {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the count-weighted mean value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Decimate reduces xs/ys to at most n points by uniform index striding,
// keeping the first and last points — used to print readable traces.
func Decimate(xs, ys []float64, n int) (dx, dy []float64) {
	if len(xs) != len(ys) {
		panic("stats: Decimate length mismatch")
	}
	if n < 2 || len(xs) <= n {
		return xs, ys
	}
	stride := float64(len(xs)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * stride))
		dx = append(dx, xs[idx])
		dy = append(dy, ys[idx])
	}
	return dx, dy
}
