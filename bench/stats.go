package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is not
// modified. An empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// tailPercentile picks the highest of p99.9 / p99 / p95 / p90 that still has
// at least ten samples beyond it, so a reported tail is never a single
// outlier; it returns the percentile used and its value.
func tailPercentile(vals []float64) (p, v float64) {
	for _, cand := range []float64{99.9, 99, 95, 90} {
		if float64(len(vals))*(100-cand)/100 >= 10 {
			return cand, percentile(vals, cand)
		}
	}
	return 50, median(vals)
}

// worsening is how far candidate is worse than base as a share of base:
// positive means a regression in the metric's own direction.
func worsening(base, candidate float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (candidate - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}
