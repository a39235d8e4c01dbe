package solver

import (
	"fmt"
)

// GrayScottParams are the inputs of one Gray–Scott reaction–diffusion run:
// the feed rate F, the kill rate k, and the two diffusion coefficients.
// Different (F, k) regions of the design space produce qualitatively
// different patterns (spots, stripes, self-replicating blobs), which makes
// the problem a good stress test for a surrogate trained on heat-equation
// style diffusion alone.
type GrayScottParams struct {
	F  float64 // feed rate of species U
	K  float64 // kill rate of species V
	Du float64 // diffusion coefficient of U (lattice units)
	Dv float64 // diffusion coefficient of V (lattice units)
}

// Vector returns the parameters in the canonical order (F, k, Du, Dv) used
// across the framework.
func (p GrayScottParams) Vector() []float64 {
	return []float64{p.F, p.K, p.Du, p.Dv}
}

// GrayScottParamsFromVector is the inverse of GrayScottParams.Vector.
func GrayScottParamsFromVector(v []float64) (GrayScottParams, error) {
	if len(v) != 4 {
		return GrayScottParams{}, fmt.Errorf("solver: want 4 gray-scott parameters, got %d", len(v))
	}
	return GrayScottParams{F: v[0], K: v[1], Du: v[2], Dv: v[3]}, nil
}

// GrayScottConfig sets up a Gray–Scott simulation: an N×N periodic lattice
// (unit spacing) advanced with an explicit Euler scheme.
type GrayScottConfig struct {
	N     int     // lattice points per side
	Steps int     // number of time steps to produce
	Dt    float64 // time-step length (lattice time units)
}

func (c GrayScottConfig) withDefaults() GrayScottConfig {
	if c.Dt <= 0 {
		c.Dt = 1
	}
	return c
}

// Validate reports configuration errors, including violation of the
// explicit scheme's diffusion stability limit Dt·D·4 ≤ 1.
func (c GrayScottConfig) Validate(p GrayScottParams) error {
	if c.N < 1 {
		return fmt.Errorf("solver: gray-scott lattice N=%d must be ≥ 1", c.N)
	}
	if c.Steps < 1 {
		return fmt.Errorf("solver: gray-scott steps=%d must be ≥ 1", c.Steps)
	}
	maxD := p.Du
	if p.Dv > maxD {
		maxD = p.Dv
	}
	if 4*c.Dt*maxD > 1 {
		return fmt.Errorf("solver: gray-scott explicit scheme unstable: dt=%g with D=%g exceeds dt·D·4 ≤ 1", c.Dt, maxD)
	}
	return nil
}

// GrayScott integrates the two-species reaction–diffusion system
//
//	∂u/∂t = Du ∇²u − u·v² + F·(1−u)
//	∂v/∂t = Dv ∇²v + u·v² − (F+k)·v
//
// on a periodic N×N lattice with an explicit Euler scheme. The flattened
// field concatenates the two channels: u (N² values) followed by v (N²
// values), so the surrogate predicts both concentrations at once. The
// deterministic initial condition is the classical seeded state u=1, v=0
// with a central square perturbed to u=1/2, v=1/4.
//
// It implements the Simulator interface and is not safe for concurrent use.
type GrayScott struct {
	cfg  GrayScottConfig
	par  GrayScottParams
	step int

	field  []float64 // u then v, each row-major N×N
	u, v   []float64 // channel views into field
	un, vn []float64 // next-step scratch
}

// NewGrayScott creates a simulation with the seeded initial condition.
func NewGrayScott(cfg GrayScottConfig, par GrayScottParams) (*GrayScott, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(par); err != nil {
		return nil, err
	}
	n := cfg.N
	g := &GrayScott{
		cfg:   cfg,
		par:   par,
		field: make([]float64, 2*n*n),
		un:    make([]float64, n*n),
		vn:    make([]float64, n*n),
	}
	g.u = g.field[:n*n]
	g.v = g.field[n*n:]
	g.seed()
	return g, nil
}

// seed writes the deterministic initial condition.
func (g *GrayScott) seed() {
	n := g.cfg.N
	for i := range g.u {
		g.u[i] = 1
		g.v[i] = 0
	}
	// Central square seed, side ≈ N/4 (at least one cell).
	side := n / 4
	if side < 1 {
		side = 1
	}
	lo := (n - side) / 2
	for i := lo; i < lo+side; i++ {
		for j := lo; j < lo+side; j++ {
			g.u[i*n+j] = 0.5
			g.v[i*n+j] = 0.25
		}
	}
}

// Config returns the (defaulted) configuration in effect.
func (g *GrayScott) Config() GrayScottConfig { return g.cfg }

// Params returns the simulation inputs.
func (g *GrayScott) Params() GrayScottParams { return g.par }

// Field implements Simulator: the concatenated (u, v) channels, length 2N².
// The slice aliases internal state.
func (g *GrayScott) Field() []float64 { return g.field }

// StepIndex implements Simulator.
func (g *GrayScott) StepIndex() int { return g.step }

// Restore implements Simulator.
func (g *GrayScott) Restore(step int, field []float64) error {
	if step < 0 || step > g.cfg.Steps {
		return fmt.Errorf("solver: gray-scott restore step %d outside [0,%d]", step, g.cfg.Steps)
	}
	if len(field) != len(g.field) {
		return fmt.Errorf("solver: gray-scott restore field length %d, want %d", len(field), len(g.field))
	}
	copy(g.field, field)
	g.step = step
	return nil
}

// StepOnce implements Simulator: one explicit Euler update of both species
// with periodic boundaries.
func (g *GrayScott) StepOnce() error {
	n := g.cfg.N
	dt := g.cfg.Dt
	f, k, du, dv := g.par.F, g.par.K, g.par.Du, g.par.Dv
	for i := 0; i < n; i++ {
		up := ((i - 1 + n) % n) * n // row above
		dn := ((i + 1) % n) * n     // row below
		row := i * n
		for j := 0; j < n; j++ {
			lf := (j - 1 + n) % n
			rt := (j + 1) % n
			u := g.u[row+j]
			v := g.v[row+j]
			lapU := g.u[up+j] + g.u[dn+j] + g.u[row+lf] + g.u[row+rt] - 4*u
			lapV := g.v[up+j] + g.v[dn+j] + g.v[row+lf] + g.v[row+rt] - 4*v
			uvv := u * v * v
			g.un[row+j] = u + dt*(du*lapU-uvv+f*(1-u))
			g.vn[row+j] = v + dt*(dv*lapV+uvv-(f+k)*v)
		}
	}
	copy(g.u, g.un)
	copy(g.v, g.vn)
	g.step++
	return nil
}

// Run advances through all configured steps, invoking emit after each one,
// mirroring Simulation.Run.
func (g *GrayScott) Run(emit func(step int, field []float64)) error {
	return Run(g, g.cfg.Steps, emit)
}
