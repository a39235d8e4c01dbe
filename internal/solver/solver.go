// Package solver implements the numerical substrate of the paper's
// experiments (§4.1): a 2D heat-equation solver using a finite-difference
// discretization with an implicit Euler scheme on a Cartesian grid. The
// linear system arising at each implicit step is symmetric positive
// definite and solved with conjugate gradients, matrix-free.
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
// The paper's Fortran90+MPI solver splits each member across ranks by 2D
// domain partitioning. Here a member is one goroutine on the whole field,
// and the parallelism is across members instead: the launcher runs
// MaxConcurrentClients members at once (§3.1's scheduler), and the
// validation set is solved by up to GOMAXPROCS concurrent members. At the
// grids this reproduction runs, splitting a member did not pay: an engine
// of row strips ran 2.4–2.7× slower with two strips than with one at grid
// 32, and 1.3–1.4× slower at grid 128 (µs per step on a 2-vCPU VM). Every
// A·p handed each strip to a goroutine, exchanged halo rows and waited for
// all of them, which cost more than a strip's share of the arithmetic.
//
// CG's per-element loops — the row stencil, pass 1 (direction update,
// stencil and p·Ap), pass 2 (x, r and r·r) and the initial residual — have
// AVX2 kernels on amd64, chosen once at init (cg.go, Kernels). A kernel
// takes each element's products and differences in the Go loop's order,
// one rounding per operation and never an FMA, and keeps every sum one
// serial scalar chain in index order, so the fields are the Go loops' bits
// on any CPU; those serial sums, two per iteration, are the solver's speed
// floor.
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

// ParamsFromVector reads the parameters from the canonical order used
// across the framework: (T_IC, T_x1, T_y1, T_x2, T_y2), matching §4.1.
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
	CGTol     float64 // CG relative residual tolerance
	CGMaxIter int     // CG iteration cap per step
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
	if c.CGTol <= 0 {
		c.CGTol = 1e-10
	}
	if c.CGMaxIter <= 0 {
		c.CGMaxIter = 10000
	}
	return c
}

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
	cfg     Config
	par     Params
	n       int       // cfg.N
	r, diag float64   // α·Δt/h² and A's diagonal, 1+4r
	u       []float64 // current interior field, row-major N×N
	step    int

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
		cfg:  cfg,
		par:  par,
		n:    cfg.N,
		r:    r,
		diag: 1 + float64(4*r),
		u:    make([]float64, cfg.N*cfg.N),
		rhs:  make([]float64, cfg.N*cfg.N),
		res:  make([]float64, cfg.N*cfg.N),
		p:    make([]float64, cfg.N*cfg.N),
		ap:   make([]float64, cfg.N*cfg.N),
	}
	for i := range s.u {
		s.u[i] = par.TIC
	}
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
