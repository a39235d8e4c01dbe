// Package solver implements the numerical substrate of the paper's
// experiments (§4.1): a 2D heat-equation solver using a finite-difference
// discretization with an implicit Euler scheme on a Cartesian grid,
// parallelized by 2D-row domain partitioning with explicit halo exchange —
// the Go equivalent of the paper's Fortran90+MPI code. The linear system
// arising at each implicit step is symmetric positive definite and solved
// with conjugate gradients, matrix-free.
//
// The PDE (paper Equation 2):
//
//	∂T/∂t = α ∇²T on [0,L]×[0,L]
//	T(x,y,0)     = T_IC
//	T(0,y,t)=T_x1, T(L,y,t)=T_x2, T(x,0,t)=T_y1, T(x,L,t)=T_y2
//
// The field is discretized on an N×N grid of interior nodes with Dirichlet
// boundary values held on the four edges.
//
// CG's per-element loops — the row stencil, pass 1 (direction update,
// stencil and p·Ap), pass 2 (x, r and r·r), the multi-strip engine's update
// and dot, and the initial residual — have AVX2 kernels on amd64, chosen
// once at init (cg.go, Kernels). A kernel takes each element's products and
// differences in the Go loop's order, one rounding per operation and never
// an FMA, and keeps every sum one serial scalar chain in index order, so the
// fields are the Go loops' bits on any CPU; those serial sums, two per
// iteration, are the solver's speed floor.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Params are the simulation inputs drawn by the experimental design: the
// initial temperature and the four boundary temperatures, each sampled in
// [100, 500] K in the paper's experiments.
type Params struct {
	TIC float64 // initial condition T(x,y,0)
	Tx1 float64 // boundary at x = 0
	Tx2 float64 // boundary at x = L
	Ty1 float64 // boundary at y = 0
	Ty2 float64 // boundary at y = L
}

// Vector returns the parameters in the canonical order used across the
// framework: (T_IC, T_x1, T_y1, T_x2, T_y2), matching §4.1.
func (p Params) Vector() []float64 {
	return []float64{p.TIC, p.Tx1, p.Ty1, p.Tx2, p.Ty2}
}

// ParamsFromVector is the inverse of Params.Vector.
func ParamsFromVector(v []float64) (Params, error) {
	if len(v) != 5 {
		return Params{}, fmt.Errorf("solver: want 5 parameters, got %d", len(v))
	}
	return Params{TIC: v[0], Tx1: v[1], Ty1: v[2], Tx2: v[3], Ty2: v[4]}, nil
}

// Config sets up a simulation run. The paper uses N=1000, Δt=0.01 s, α=1,
// 100 time steps; the reproduction defaults to smaller grids so that CPU
// training remains feasible, which does not change the streaming behaviour
// under study.
type Config struct {
	N         int     // interior grid points per side
	L         float64 // domain edge length (m)
	Alpha     float64 // thermal diffusivity (m²/s)
	Dt        float64 // time-step length (s)
	Steps     int     // number of time steps to produce
	Workers   int     // domain partitions (strips); ≤ 0 means 1
	CGTol     float64 // CG relative residual tolerance
	CGMaxIter int     // CG iteration cap per step
}

// DefaultConfig mirrors the paper's physical setup at a reduced grid size.
func DefaultConfig() Config {
	return Config{N: 32, L: 1, Alpha: 1, Dt: 0.01, Steps: 100, Workers: 1, CGTol: 1e-10, CGMaxIter: 10000}
}

func (c Config) withDefaults() Config {
	if c.L <= 0 {
		c.L = 1
	}
	if c.Alpha <= 0 {
		c.Alpha = 1
	}
	if c.Dt <= 0 {
		c.Dt = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Workers > c.N {
		c.Workers = c.N
	}
	if c.CGTol <= 0 {
		c.CGTol = 1e-10
	}
	if c.CGMaxIter <= 0 {
		c.CGMaxIter = 10000
	}
	return c
}

// WithDefaults returns the configuration completed with default values, as
// New applies them — callers that need the effective Dt or worker count
// before constructing a simulation use this.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("solver: grid size N=%d must be ≥ 1", c.N)
	}
	if c.Steps < 1 {
		return fmt.Errorf("solver: steps=%d must be ≥ 1", c.Steps)
	}
	return nil
}

// Simulation is one ensemble member: a heat-equation run for a fixed
// parameter vector. It is not safe for concurrent use.
type Simulation struct {
	cfg  Config
	par  Params
	r    float64   // α·Δt/h²
	u    []float64 // current interior field, row-major N×N
	step int
	eng  *engine

	rhs, res, p, ap []float64 // CG work vectors
}

// New creates a simulation with the field initialized to the initial
// condition. cfg is validated and completed with defaults.
func New(cfg Config, par Params) (*Simulation, error) {
	if err := checkFinite(cfg, par); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := cfg.L / float64(cfg.N+1)
	r := cfg.Alpha * cfg.Dt / (h * h)
	if math.IsInf(r, 0) {
		return nil, fmt.Errorf("solver: Alpha·Dt/h² overflows (Alpha=%g, Dt=%g, L=%g, N=%d)", cfg.Alpha, cfg.Dt, cfg.L, cfg.N)
	}
	s := &Simulation{
		cfg: cfg,
		par: par,
		r:   r,
		u:   make([]float64, cfg.N*cfg.N),
		rhs: make([]float64, cfg.N*cfg.N),
		res: make([]float64, cfg.N*cfg.N),
		p:   make([]float64, cfg.N*cfg.N),
		ap:  make([]float64, cfg.N*cfg.N),
	}
	for i := range s.u {
		s.u[i] = par.TIC
	}
	s.eng = newEngine(cfg.N, cfg.Workers, s.r)
	return s, nil
}

// checkFinite refuses a NaN or infinite physical input, naming the field.
// withDefaults lets a NaN through (it is not ≤ 0), and CG would then spin
// CGMaxIter iterations on NaN before returning ErrNoConvergence.
func checkFinite(cfg Config, par Params) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"L", cfg.L}, {"Alpha", cfg.Alpha}, {"Dt", cfg.Dt},
		{"TIC", par.TIC}, {"Tx1", par.Tx1}, {"Tx2", par.Tx2}, {"Ty1", par.Ty1}, {"Ty2", par.Ty2},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("solver: %s=%g is not finite", f.name, f.v)
		}
	}
	return nil
}

// Config returns the (defaulted) configuration in effect.
func (s *Simulation) Config() Config { return s.cfg }

// Params returns the simulation inputs.
func (s *Simulation) Params() Params { return s.par }

// Field returns the current interior temperature field (row-major, length
// N²). The slice aliases internal state; callers must copy before the next
// step if they retain it — the client library does this as part of its
// in-situ gather.
func (s *Simulation) Field() []float64 { return s.u }

// StepIndex returns the number of completed time steps.
func (s *Simulation) StepIndex() int { return s.step }

// Restore resets the simulation to a checkpointed state: the field after
// the given completed step. Used by restarted clients resuming from a
// checkpoint (§3.1).
func (s *Simulation) Restore(step int, field []float64) error {
	if step < 0 || step > s.cfg.Steps {
		return fmt.Errorf("solver: restore step %d outside [0,%d]", step, s.cfg.Steps)
	}
	if len(field) != len(s.u) {
		return fmt.Errorf("solver: restore field length %d, want %d", len(field), len(s.u))
	}
	copy(s.u, field)
	s.step = step
	return nil
}

// ErrNoConvergence is returned when CG exhausts its iteration budget.
var ErrNoConvergence = errors.New("solver: conjugate gradient did not converge")

// StepOnce advances the field by one implicit Euler step, solving
// (I + r·L_h) u^{n+1} = u^n + boundary terms with conjugate gradients,
// warm-started from the current field.
func (s *Simulation) StepOnce() error {
	s.buildRHS()
	if err := s.solveCG(); err != nil {
		return err
	}
	s.step++
	return nil
}

// Run advances through all configured steps, invoking emit after each one
// with the 1-based step index and the current field. This is the hook the
// client library instruments: "a send is issued to transfer time steps
// u_t^X as soon as computed" (§3.1).
func (s *Simulation) Run(emit func(step int, field []float64)) error {
	return Run(s, s.cfg.Steps, emit)
}

// buildRHS assembles b = u^n + r·(Dirichlet neighbour contributions).
func (s *Simulation) buildRHS() {
	n := s.cfg.N
	copy(s.rhs, s.u)
	r := s.r
	// Left and right columns.
	for i := 0; i < n; i++ {
		s.rhs[i*n] += r * s.par.Tx1
		s.rhs[i*n+n-1] += r * s.par.Tx2
	}
	// Bottom (y=0) and top (y=L) rows.
	for j := 0; j < n; j++ {
		s.rhs[j] += r * s.par.Ty1
		s.rhs[(n-1)*n+j] += r * s.par.Ty2
	}
}
