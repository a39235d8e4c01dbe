package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func inUnitCube(p []float64) bool {
	for _, v := range p {
		if v < 0 || v >= 1 {
			return false
		}
	}
	return true
}

func TestMonteCarloRangeAndDeterminism(t *testing.T) {
	a := NewMonteCarlo(5, 7)
	b := NewMonteCarlo(5, 7)
	c := NewMonteCarlo(5, 8)
	differs := false
	for i := 0; i < 100; i++ {
		pa, pb, pc := a.Next(), b.Next(), c.Next()
		if !inUnitCube(pa) {
			t.Fatalf("point outside unit cube: %v", pa)
		}
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatal("same seed diverged")
			}
			if pa[d] != pc[d] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
	if a.Dim() != 5 {
		t.Fatal("dim wrong")
	}
}

func TestMonteCarloRoughUniformity(t *testing.T) {
	m := NewMonteCarlo(1, 3)
	const n = 20000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := m.Next()[0]
		sum += v
		buckets[int(v*10)]++
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > 0.1*n/10 {
			t.Fatalf("bucket %d count %d deviates >10%%", i, c)
		}
	}
}

func TestHaltonKnownPrefix(t *testing.T) {
	// Base 2 (dim 0): 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8 …
	// Base 3 (dim 1): 1/3, 2/3, 1/9, 4/9, 7/9, 2/9, 5/9 …
	h := NewHalton(2)
	wantB2 := []float64{0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875}
	wantB3 := []float64{1. / 3, 2. / 3, 1. / 9, 4. / 9, 7. / 9, 2. / 9, 5. / 9}
	for i := range wantB2 {
		p := h.Next()
		if math.Abs(p[0]-wantB2[i]) > 1e-12 || math.Abs(p[1]-wantB3[i]) > 1e-12 {
			t.Fatalf("point %d = %v, want (%v, %v)", i, p, wantB2[i], wantB3[i])
		}
	}
}

func TestHaltonSkip(t *testing.T) {
	a := NewHalton(2)
	a.Skip(3)
	b := NewHalton(2)
	for i := 0; i < 3; i++ {
		b.Next()
	}
	pa, pb := a.Next(), b.Next()
	for d := range pa {
		if pa[d] != pb[d] {
			t.Fatal("Skip(3) differs from three Next() calls")
		}
	}
}

func TestHaltonLowDiscrepancy(t *testing.T) {
	// The first n Halton points in 1D fill [0,1) far more evenly than
	// random: every interval [k/16,(k+1)/16) must contain n/16 ± 2 points.
	h := NewHalton(1)
	const n = 256
	counts := make([]int, 16)
	for i := 0; i < n; i++ {
		counts[int(h.Next()[0]*16)]++
	}
	for i, c := range counts {
		if c < n/16-2 || c > n/16+2 {
			t.Fatalf("interval %d has %d points, want %d±2", i, c, n/16)
		}
	}
}

func TestFirstPrimes(t *testing.T) {
	want := []int{2, 3, 5, 7, 11, 13, 17}
	got := firstPrimes(7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primes %v, want %v", got, want)
		}
	}
}

func TestLHSStratification(t *testing.T) {
	// Within one block of n points every dimension must place exactly one
	// point in each stratum — the defining Latin hypercube property.
	const dim, n = 4, 16
	l := NewLatinHypercube(dim, n, 11)
	points := make([][]float64, n)
	for i := range points {
		points[i] = l.Next()
	}
	for d := 0; d < dim; d++ {
		seen := make([]bool, n)
		for _, p := range points {
			k := int(p[d] * n)
			if k < 0 || k >= n {
				t.Fatalf("point outside unit cube: %v", p[d])
			}
			if seen[k] {
				t.Fatalf("dim %d stratum %d hit twice", d, k)
			}
			seen[k] = true
		}
	}
}

func TestLHSRegeneratesBlocks(t *testing.T) {
	l := NewLatinHypercube(2, 4, 5)
	if l.BlockSize() != 4 {
		t.Fatal("block size")
	}
	// Draw three full blocks; each must be stratified independently.
	for block := 0; block < 3; block++ {
		seen := make([]bool, 4)
		for i := 0; i < 4; i++ {
			p := l.Next()
			k := int(p[0] * 4)
			if seen[k] {
				t.Fatalf("block %d: stratum %d repeated", block, k)
			}
			seen[k] = true
		}
	}
}

func TestLHSDeterministic(t *testing.T) {
	a, b := NewLatinHypercube(3, 8, 9), NewLatinHypercube(3, 8, 9)
	for i := 0; i < 20; i++ {
		pa, pb := a.Next(), b.Next()
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestSpaceScaleNormalize(t *testing.T) {
	s, err := NewSpace([]float64{100, 0}, []float64{500, 10})
	if err != nil {
		t.Fatal(err)
	}
	x := s.Scale([]float64{0.5, 0.1})
	if x[0] != 300 || x[1] != 1 {
		t.Fatalf("Scale: %v", x)
	}
	u := s.Normalize(x)
	if math.Abs(u[0]-0.5) > 1e-12 || math.Abs(u[1]-0.1) > 1e-12 {
		t.Fatalf("Normalize: %v", u)
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace([]float64{0, 0}, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := NewSpace([]float64{2}, []float64{1}); err == nil {
		t.Fatal("expected min>max error")
	}
}

func TestSpaceDegenerateDim(t *testing.T) {
	s, _ := NewSpace([]float64{5}, []float64{5})
	if got := s.Normalize([]float64{5}); got[0] != 0 {
		t.Fatalf("degenerate normalize: %v", got)
	}
}

func TestHeatSpace(t *testing.T) {
	s := HeatSpace()
	if s.Dim() != 5 {
		t.Fatal("heat space must be 5-dimensional")
	}
	x := s.Scale([]float64{0, 0.25, 0.5, 0.75, 1})
	want := []float64{100, 200, 300, 400, 500}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scale: %v", x)
		}
	}
}

// Property: scaling then normalizing is the identity for any space and
// point.
func TestScaleNormalizeRoundtripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		mc := NewMonteCarlo(4, seed)
		u := mc.Next()
		s, _ := NewSpace([]float64{-3, 0, 100, 7}, []float64{5, 1, 500, 7.5})
		back := s.Normalize(s.Scale(u))
		for i := range u {
			if math.Abs(back[i]-u[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewByKind(t *testing.T) {
	for _, kind := range []Kind{MonteCarloKind, LatinHypercubeKind, HaltonKind} {
		s, err := New(kind, 3, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Next()
		if len(p) != 3 {
			t.Fatalf("%s: dim %d", kind, len(p))
		}
		if !inUnitCube(p) {
			t.Fatalf("%s: point outside cube", kind)
		}
	}
	if _, err := New("bogus", 3, 1, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestAdaptivePrefersHighScore(t *testing.T) {
	// Score favors the first coordinate; adaptive draws must have a higher
	// mean first coordinate than the base design.
	base := NewMonteCarlo(2, 3)
	ad := NewAdaptive(NewMonteCarlo(2, 3), 8, 0, 4, func(p []float64) float64 { return p[0] })
	const n = 2000
	var meanBase, meanAd float64
	for i := 0; i < n; i++ {
		meanBase += base.Next()[0]
		meanAd += ad.Next()[0]
	}
	meanBase /= n
	meanAd /= n
	if meanAd < meanBase+0.2 {
		t.Fatalf("adaptive mean %v not above base %v", meanAd, meanBase)
	}
}

func TestAdaptiveEpsilonOneIsBase(t *testing.T) {
	// ε=1 means pure exploration: stream equals the base stream.
	a := NewAdaptive(NewHalton(2), 8, 1, 5, func(p []float64) float64 { return p[0] })
	b := NewHalton(2)
	for i := 0; i < 50; i++ {
		pa, pb := a.Next(), b.Next()
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatal("ε=1 adaptive deviated from base design")
			}
		}
	}
	if len(a.Next()) != 2 {
		t.Fatal("dim")
	}
}

func TestAdaptiveNilScoreFallsBack(t *testing.T) {
	a := NewAdaptive(NewHalton(1), 4, 0, 1, nil)
	if !inUnitCube(a.Next()) {
		t.Fatal("point outside cube")
	}
}

// Dim implements Sampler.
func (m *MonteCarlo) Dim() int { return m.dim }

// Normalize maps a physical point back to the unit cube, used to feed
// surrogate inputs in a trainable range.
func (s Space) Normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		span := s.Max[i] - s.Min[i]
		if span == 0 {
			out[i] = 0
			continue
		}
		out[i] = (v - s.Min[i]) / span
	}
	return out
}

// Dim implements Sampler.
func (h *Halton) Dim() int { return h.dim }

// Skip advances the sequence by n points, a common de-correlation practice
// when several ensembles share the sequence.
func (h *Halton) Skip(n int) { h.index += n }

// Dim implements Sampler.
func (l *LatinHypercube) Dim() int { return l.dim }

// BlockSize returns the stratification block length.
func (l *LatinHypercube) BlockSize() int { return l.n }
