package stats

import (
	"math"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.Add(8)
	h.Add(8)
	if h.Count(1) != 2 || h.Count(3) != 1 || h.Count(8) != 2 || h.Count(5) != 0 {
		t.Fatal("counts wrong")
	}
	if h.Total() != 5 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Max() != 8 {
		t.Fatalf("max %d", h.Max())
	}
	// mean = (1*2 + 3*1 + 8*2)/5 = 21/5
	if math.Abs(h.Mean()-4.2) > 1e-12 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Total() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestDecimate(t *testing.T) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i * i)
	}
	dx, dy := Decimate(xs, ys, 5)
	if len(dx) != 5 || len(dy) != 5 {
		t.Fatalf("lengths %d/%d", len(dx), len(dy))
	}
	if dx[0] != 0 || dx[4] != 99 {
		t.Fatalf("endpoints not kept: %v", dx)
	}
	// Short series are returned unchanged.
	sx, sy := Decimate(xs[:3], ys[:3], 5)
	if len(sx) != 3 || len(sy) != 3 {
		t.Fatal("short series modified")
	}
}

func TestDecimateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decimate(make([]float64, 3), make([]float64, 4), 2)
}

// Total returns the number of added values.
func (h *Histogram) Total() int { return h.total }
