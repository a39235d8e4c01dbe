package solver

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 0, Steps: 1}).Validate(); err == nil {
		t.Fatal("expected error for N=0")
	}
	if err := (Config{N: 4, Steps: 0}).Validate(); err == nil {
		t.Fatal("expected error for Steps=0")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	s, err := New(Config{N: 4, Steps: 1}, Params{TIC: 300})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Workers != 1 || cfg.CGTol <= 0 || cfg.CGMaxIter <= 0 || cfg.Dt <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Workers clamped to N.
	s, err = New(Config{N: 3, Steps: 1, Workers: 16}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Workers != 3 {
		t.Fatalf("workers not clamped: %d", s.Config().Workers)
	}
}

func TestParamsVectorRoundtrip(t *testing.T) {
	p := Params{TIC: 1, Tx1: 2, Ty1: 3, Tx2: 4, Ty2: 5}
	v := p.Vector()
	got, err := ParamsFromVector(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("roundtrip: %+v != %+v", got, p)
	}
	if _, err := ParamsFromVector([]float64{1, 2}); err == nil {
		t.Fatal("expected error for short vector")
	}
}

func TestSteadyStateIsExact(t *testing.T) {
	// With IC equal to all boundary temperatures the solution is constant
	// in time; the solver must preserve it to rounding.
	const temp = 321.5
	s, err := New(Config{N: 12, Steps: 10}, Params{TIC: temp, Tx1: temp, Tx2: temp, Ty1: temp, Ty2: temp})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Field() {
		if math.Abs(v-temp) > 1e-8 {
			t.Fatalf("node %d drifted: %v", i, v)
		}
	}
}

func TestConvergesToBoundaryTemperature(t *testing.T) {
	// All boundaries at 400, IC at 100: after many diffusion times the
	// field must approach 400 everywhere.
	s, err := New(Config{N: 16, Steps: 600, Dt: 0.01, Alpha: 1, L: 1}, Params{TIC: 100, Tx1: 400, Tx2: 400, Ty1: 400, Ty2: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Field() {
		if math.Abs(v-400) > 0.01 {
			t.Fatalf("node %d = %v, want ≈400", i, v)
		}
	}
}

// TestMaxPrinciple: the discrete implicit scheme inherits the maximum
// principle — temperatures stay within [min, max] of the IC and boundary
// values for all time, for arbitrary parameters.
func TestMaxPrinciple(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		sample := func() float64 { return 100 + 400*rng.Float64() }
		par := Params{TIC: sample(), Tx1: sample(), Tx2: sample(), Ty1: sample(), Ty2: sample()}
		lo := math.Min(par.TIC, math.Min(math.Min(par.Tx1, par.Tx2), math.Min(par.Ty1, par.Ty2)))
		hi := math.Max(par.TIC, math.Max(math.Max(par.Tx1, par.Tx2), math.Max(par.Ty1, par.Ty2)))
		s, err := New(Config{N: 8, Steps: 20, Dt: 0.02}, par)
		if err != nil {
			return false
		}
		ok := true
		err = s.Run(func(_ int, field []float64) {
			for _, v := range field {
				if v < lo-1e-7 || v > hi+1e-7 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// Tx1 == Tx2 gives left-right mirror symmetry; Ty1 == Ty2 gives
	// top-bottom symmetry.
	n := 11
	s, err := New(Config{N: n, Steps: 15, Dt: 0.005}, Params{TIC: 250, Tx1: 300, Tx2: 300, Ty1: 150, Ty2: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	u := s.Field()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(u[i*n+j] - u[i*n+(n-1-j)]); d > 1e-8 {
				t.Fatalf("x-mirror broken at (%d,%d): %v", i, j, d)
			}
			if d := math.Abs(u[i*n+j] - u[(n-1-i)*n+j]); d > 1e-8 {
				t.Fatalf("y-mirror broken at (%d,%d): %v", i, j, d)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	par := Params{TIC: 120, Tx1: 480, Tx2: 210, Ty1: 330, Ty2: 150}
	run := func(n, workers int) []float64 {
		s, err := New(Config{N: n, Steps: 8, Dt: 0.003, Workers: workers}, par)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(s.Field()))
		copy(out, s.Field())
		return out
	}
	// N = 1 is one strip at any worker count; N = 2 is two one-row strips,
	// each the other's halo.
	for _, n := range []int{1, 2, 17} {
		ref := run(n, 1)
		for _, w := range []int{2, 3, 4, 8, 17} {
			got := run(n, w)
			for i := range ref {
				// Every element of A·p is the same expression on either
				// engine and the CG scalars are summed centrally in index
				// order, so the strips — unfused, with a halo exchange — must
				// match the fused one-strip solve bit for bit.
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("N=%d workers=%d differs at node %d: %v vs %v", n, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// FuzzSolverStrips is the differential test between the two CG engines:
// for a drawn grid, time step, parameter vector and worker count, the
// multi-strip solve must leave the same field bits as the fused one-strip
// solve after every step, and fail on the same step if either fails.
func FuzzSolverStrips(f *testing.F) {
	f.Add(uint8(17), 0.003, 120.0, 480.0, 210.0, 330.0, 150.0, uint8(3))
	f.Add(uint8(2), 0.01, 300.0, 100.0, 500.0, 200.0, 400.0, uint8(2))
	f.Add(uint8(48), 0.5, 100.0, 500.0, 100.0, 500.0, 100.0, uint8(48))
	f.Add(uint8(5), 1e-5, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(4))
	f.Fuzz(func(t *testing.T, n uint8, dt, tic, tx1, tx2, ty1, ty2 float64, workers uint8) {
		cfg := Config{N: 2 + int(n)%47, Steps: 4, Dt: dt}
		if !(dt > 0 && dt <= 10) {
			// Longer steps only cost more CG iterations.
			cfg.Dt = 0.01
		}
		w := 2 + int(workers)%(cfg.N-1)
		par := Params{TIC: tic, Tx1: tx1, Tx2: tx2, Ty1: ty1, Ty2: ty2}
		for _, v := range par.Vector() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite parameter")
			}
		}
		one, err := New(cfg, par)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = w
		strips, err := New(cfg, par)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= cfg.Steps; step++ {
			errOne, errStrips := one.StepOnce(), strips.StepOnce()
			if errOne != errStrips {
				t.Fatalf("N=%d workers=%d step %d: errors %v vs %v", cfg.N, w, step, errOne, errStrips)
			}
			for i, v := range one.Field() {
				if u := strips.Field()[i]; math.Float64bits(u) != math.Float64bits(v) {
					t.Fatalf("N=%d Dt=%v workers=%d step %d node %d: %v (strips) vs %v (one strip)", cfg.N, cfg.Dt, w, step, i, u, v)
				}
			}
			if errOne != nil {
				return
			}
		}
	})
}

func TestStepMatchesDenseDirectSolve(t *testing.T) {
	cfg := Config{N: 6, Steps: 1, Dt: 0.01}
	par := Params{TIC: 200, Tx1: 100, Tx2: 500, Ty1: 300, Ty2: 400}
	s, err := New(cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, len(s.Field()))
	copy(u0, s.Field())
	want := DenseStep(cfg, par, u0)
	if err := s.StepOnce(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(s.Field()[i] - want[i]); d > 1e-7 {
			t.Fatalf("node %d: CG %v vs dense %v", i, s.Field()[i], want[i])
		}
	}
}

func TestMatchesAnalyticSeries(t *testing.T) {
	// Cooling of a hot plate with all boundaries cold: compare the solver
	// against the exact Fourier series at several probe points. Grid and
	// time-step errors are O(h²)+O(Δt); tolerances reflect that.
	const (
		n     = 32
		tic   = 500.0
		tb    = 100.0
		alpha = 1.0
		l     = 1.0
		dt    = 5e-4
		steps = 40 // t = 0.02 s
	)
	s, err := New(Config{N: n, Steps: steps, Dt: dt, Alpha: alpha, L: l}, Params{TIC: tic, Tx1: tb, Tx2: tb, Ty1: tb, Ty2: tb})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	tFinal := dt * steps
	h := l / float64(n+1)
	probes := [][2]int{{n / 2, n / 2}, {n / 4, n / 4}, {n / 2, n / 4}, {3 * n / 4, n / 2}}
	for _, p := range probes {
		x := float64(p[1]+1) * h
		y := float64(p[0]+1) * h
		want := AnalyticEqualBoundaries(tic, tb, alpha, l, x, y, tFinal, 61)
		got := s.Field()[p[0]*n+p[1]]
		if d := math.Abs(got - want); d > 0.02*(tic-tb) {
			t.Fatalf("probe %v: solver %v vs analytic %v (diff %v)", p, got, want, d)
		}
	}
}

func TestRunEmitsEveryStep(t *testing.T) {
	s, err := New(Config{N: 4, Steps: 7}, Params{TIC: 300, Tx1: 200, Tx2: 200, Ty1: 200, Ty2: 200})
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	err = s.Run(func(step int, field []float64) {
		steps = append(steps, step)
		if len(field) != 16 {
			t.Fatalf("field length %d", len(field))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 7 {
		t.Fatalf("emitted %d steps, want 7", len(steps))
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("step sequence %v", steps)
		}
	}
	if s.StepIndex() != 7 {
		t.Fatalf("StepIndex = %d", s.StepIndex())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	par := Params{TIC: 333, Tx1: 111, Tx2: 222, Ty1: 444, Ty2: 137}
	run := func() []float64 {
		s, _ := New(Config{N: 9, Steps: 5}, par)
		_ = s.Run(nil)
		out := make([]float64, len(s.Field()))
		copy(out, s.Field())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("solver not deterministic")
		}
	}
}

func TestGaussSolveIdentityAndRandom(t *testing.T) {
	// Identity.
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, 4}
	x := gaussSolve(a, b)
	if x[0] != 3 || x[1] != 4 {
		t.Fatalf("identity solve: %v", x)
	}
	// Random SPD-ish system validated by residual.
	rng := rand.New(rand.NewPCG(8, 8))
	n := 12
	m := make([][]float64, n)
	orig := make([][]float64, n)
	rhs := make([]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		orig[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
		m[i][i] += float64(n) // diagonal dominance
		copy(orig[i], m[i])
		rhs[i] = rng.NormFloat64()
	}
	origRHS := make([]float64, n)
	copy(origRHS, rhs)
	x = gaussSolve(m, rhs)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += orig[i][j] * x[j]
		}
		if math.Abs(s-origRHS[i]) > 1e-9 {
			t.Fatalf("residual row %d: %v", i, s-origRHS[i])
		}
	}
}

// BenchmarkStep32 times a step of the converged tail, where CG takes about
// one iteration.
func BenchmarkStep32(b *testing.B) {
	s, _ := New(Config{N: 32, Steps: 1 << 30}, Params{TIC: 300, Tx1: 100, Tx2: 500, Ty1: 200, Ty2: 400})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StepOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation32 times one 100-step member from the initial
// condition — what a client and a validation member run, CG iterations of
// the early transient included.
func BenchmarkSimulation32(b *testing.B) {
	par := Params{TIC: 300, Tx1: 100, Tx2: 500, Ty1: 200, Ty2: 400}
	steps := 0
	for b.Loop() {
		s, err := New(Config{N: 32, Steps: 100}, par)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			b.Fatal(err)
		}
		steps += s.StepIndex()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(steps), "us/step")
}

// BenchmarkCGKernels times each pass of a CG iteration on the 32×32 grid,
// the active kernels beside their portable loops: search is pass 1 (the
// direction update, A·p and p·Ap), step pass 2 (x, r and r·r), residual the
// initial r = b − Ax with r·r and b·b, and apply one A·x row by row.
func BenchmarkCGKernels(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewPCG(1, 2))
	vec := func() []float64 {
		v := make([]float64, n*n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	ap, p, res, x := vec(), vec(), vec(), vec()
	r := 0.01 / ((1.0 / (n + 1)) * (1.0 / (n + 1)))
	diag := 1 + 4*r
	for _, k := range []struct {
		name string
		k    kernels
	}{{"active", kern}, {"portable", portable}} {
		b.Run("search/"+k.name, func(b *testing.B) {
			for b.Loop() {
				k.k.search(ap, p, res, n, r, diag, true, 1e-300)
			}
		})
		b.Run("step/"+k.name, func(b *testing.B) {
			for b.Loop() {
				k.k.step(x, res, p, ap, 1e-300)
			}
		})
		b.Run("residual/"+k.name, func(b *testing.B) {
			for b.Loop() {
				k.k.residual(res, p, x, ap)
			}
		})
		b.Run("apply/"+k.name, func(b *testing.B) {
			for b.Loop() {
				for i := 0; i < n; i++ {
					var up, dn []float64
					if i > 0 {
						up = p[(i-1)*n : i*n]
					}
					if i < n-1 {
						dn = p[(i+1)*n : (i+2)*n]
					}
					k.k.stencilRow(ap[i*n:(i+1)*n], p[i*n:(i+1)*n], up, dn, r, diag)
				}
			}
		})
	}
}

// TestNewRefusesNonFinite checks that New refuses NaN and ±Inf in each
// physical input, naming the field, instead of letting CG spin CGMaxIter
// iterations of NaN; and an α·Δt/h² that overflows from finite inputs.
func TestNewRefusesNonFinite(t *testing.T) {
	par := Params{TIC: 300, Tx1: 100, Tx2: 500, Ty1: 200, Ty2: 400}
	for _, tc := range []struct {
		field string
		set   func(*Config, *Params, float64)
	}{
		{"L", func(c *Config, _ *Params, v float64) { c.L = v }},
		{"Alpha", func(c *Config, _ *Params, v float64) { c.Alpha = v }},
		{"Dt", func(c *Config, _ *Params, v float64) { c.Dt = v }},
		{"TIC", func(_ *Config, p *Params, v float64) { p.TIC = v }},
		{"Tx1", func(_ *Config, p *Params, v float64) { p.Tx1 = v }},
		{"Tx2", func(_ *Config, p *Params, v float64) { p.Tx2 = v }},
		{"Ty1", func(_ *Config, p *Params, v float64) { p.Ty1 = v }},
		{"Ty2", func(_ *Config, p *Params, v float64) { p.Ty2 = v }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				cfg, p := DefaultConfig(), par
				tc.set(&cfg, &p, v)
				_, err := New(cfg, p)
				if err == nil || !strings.Contains(err.Error(), tc.field+"=") {
					t.Errorf("%s=%v: New error %v, want one naming %s", tc.field, v, err, tc.field)
				}
			}
			cfg, p := DefaultConfig(), par
			tc.set(&cfg, &p, 0.5)
			if _, err := New(cfg, p); err != nil {
				t.Errorf("%s=0.5: %v", tc.field, err)
			}
		})
	}
	cfg := DefaultConfig()
	cfg.Dt = 1e308
	if _, err := New(cfg, par); err == nil {
		t.Error("an overflowing α·Δt/h² was accepted")
	}
}
