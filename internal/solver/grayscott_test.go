package solver

import (
	"math"
	"testing"
)

func gsParams() GrayScottParams {
	return GrayScottParams{F: 0.04, K: 0.06, Du: 0.16, Dv: 0.08}
}

func TestGrayScottValidation(t *testing.T) {
	if _, err := NewGrayScott(GrayScottConfig{N: 0, Steps: 5}, gsParams()); err == nil {
		t.Fatal("expected error for N=0")
	}
	if _, err := NewGrayScott(GrayScottConfig{N: 8, Steps: 0}, gsParams()); err == nil {
		t.Fatal("expected error for Steps=0")
	}
	unstable := gsParams()
	unstable.Du = 2 // dt·D·4 = 8 > 1
	if _, err := NewGrayScott(GrayScottConfig{N: 8, Steps: 5, Dt: 1}, unstable); err == nil {
		t.Fatal("expected stability error")
	}
}

func TestGrayScottParamsVectorRoundtrip(t *testing.T) {
	p := gsParams()
	got, err := GrayScottParamsFromVector(p.Vector())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("roundtrip %+v != %+v", got, p)
	}
	if _, err := GrayScottParamsFromVector([]float64{1, 2, 3}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestGrayScottEvolvesAndStaysBounded(t *testing.T) {
	g, err := NewGrayScott(GrayScottConfig{N: 16, Steps: 200, Dt: 1}, gsParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Field()) != 2*16*16 {
		t.Fatalf("field length %d, want %d", len(g.Field()), 2*16*16)
	}
	initial := append([]float64(nil), g.Field()...)
	steps := 0
	err = g.Run(func(step int, field []float64) {
		steps++
		if step != steps {
			t.Fatalf("step index %d, want %d", step, steps)
		}
		for i, v := range field {
			if math.IsNaN(v) || v < -0.5 || v > 1.5 {
				t.Fatalf("step %d: field[%d]=%v out of bounds", step, i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 200 {
		t.Fatalf("emitted %d steps, want 200", steps)
	}
	// The reaction front must have moved the field away from the seed state.
	var diff float64
	for i, v := range g.Field() {
		diff += math.Abs(v - initial[i])
	}
	if diff < 1 {
		t.Fatalf("field barely evolved (L1 drift %v)", diff)
	}
}

func TestGrayScottDeterministicAndRestorable(t *testing.T) {
	cfg := GrayScottConfig{N: 12, Steps: 50, Dt: 1}
	a, _ := NewGrayScott(cfg, gsParams())
	b, _ := NewGrayScott(cfg, gsParams())
	for i := 0; i < 30; i++ {
		if err := a.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// Restore b from a's state at step 30; both must then agree exactly.
	snapshot := append([]float64(nil), a.Field()...)
	if err := b.Restore(30, snapshot); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := a.StepOnce(); err != nil {
			t.Fatal(err)
		}
		if err := b.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range a.Field() {
		if a.Field()[i] != b.Field()[i] {
			t.Fatalf("restored run diverged at %d", i)
		}
	}
	if err := b.Restore(-1, snapshot); err == nil {
		t.Fatal("expected error for negative step")
	}
	if err := b.Restore(3, snapshot[:5]); err == nil {
		t.Fatal("expected error for short field")
	}
}

func TestGrayScottImplementsSimulator(t *testing.T) {
	var _ Simulator = &GrayScott{}
	var _ Simulator = &Simulation{}
}

// Run advances through all configured steps, invoking emit after each one,
// mirroring Simulation.Run.
func (g *GrayScott) Run(emit func(step int, field []float64)) error {
	return Run(g, g.cfg.Steps, emit)
}

// Vector is the inverse of GrayScottParamsFromVector.
func (p GrayScottParams) Vector() []float64 {
	return []float64{p.F, p.K, p.Du, p.Dv}
}
