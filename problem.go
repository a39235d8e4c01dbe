package melissa

import (
	"fmt"
	"sort"
	"sync"

	"melissa/internal/core"
	"melissa/internal/sampling"
	"melissa/internal/solver"
)

// Simulator is one running ensemble member: a stepwise time integrator
// over a flattened field. Problems return Simulators from NewSimulator;
// the framework drives them step by step so clients can stream every
// computed field and resume from checkpoints.
type Simulator interface {
	// StepOnce advances the field by one time step.
	StepOnce() error
	// StepIndex returns the number of completed time steps.
	StepIndex() int
	// Field returns the current flattened field. The slice may alias
	// internal state; callers must copy before the next step if they
	// retain it.
	Field() []float64
	// Restore resets the simulator to a checkpointed state: the field
	// after the given completed step.
	Restore(step int, field []float64) error
}

// Normalizer maps a problem's raw streamed samples (physical units) into
// network input and target rows, and predictions back. Keeping
// normalization on the training side leaves the wire data faithful to the
// solver output.
type Normalizer interface {
	// InputDim is the network input width: the design parameters plus the
	// time input.
	InputDim() int
	// OutputDim is the flattened field length the network predicts.
	OutputDim() int
	// NormalizeInput writes the normalized network input for one raw input
	// vector (the physical parameters followed by the physical time).
	NormalizeInput(raw, dst []float32)
	// NormalizeOutput writes the normalized training target for one raw
	// field.
	NormalizeOutput(raw, dst []float32)
	// DenormalizeField maps a normalized prediction back to physical
	// units in place.
	DenormalizeField(field []float32)
	// RawMSE converts a normalized-unit MSE into physical units².
	RawMSE(normalizedMSE float64) float64
}

// Problem describes one simulation scenario the framework can train a
// surrogate for: its parameter space, its solver, its normalization, and
// its output geometry. RunOnline, GenerateDataset, TrainOffline, the
// launcher, and the validation generator operate exclusively through this
// interface; the heat equation (the paper's demonstrator) and Gray–Scott
// reaction–diffusion are the two registered implementations.
type Problem interface {
	// Name identifies the problem; it is recorded in surrogate checkpoints
	// so LoadSurrogate can reconstruct the model from the registry.
	Name() string
	// ParamNames returns the design-parameter names; their count is the
	// design dimensionality.
	ParamNames() []string
	// ParamBounds returns the design space box: per-parameter physical
	// minima and maxima, each of length len(ParamNames()).
	ParamBounds() (min, max []float64)
	// FieldShape returns the logical shape of the flattened output field
	// for a configuration — e.g. [N N] for the heat equation, [2 N N] for
	// Gray–Scott's two channels. The flattened length is its product.
	FieldShape(cfg Config) []int
	// NewSimulator builds one ensemble member for the given physical
	// parameters (in ParamNames order). It is called concurrently: by the
	// launcher's clients (up to Config.MaxConcurrentClients at a time, 4 by
	// default) and by the validation members, which are solved up to
	// GOMAXPROCS at a time. Each Simulator it returns is driven by one
	// goroutine.
	NewSimulator(cfg Config, params []float64) (Simulator, error)
	// Normalizer builds the sample normalizer for a configuration.
	Normalizer(cfg Config) Normalizer
}

var (
	problemMu       sync.RWMutex
	problemRegistry = map[string]func() Problem{}
)

// RegisterProblem makes a problem constructor available by name, for
// Config.Problem lookups by CLI flags and for LoadSurrogate's
// metadata-driven reconstruction. It panics on duplicate names, like
// database/sql.Register.
func RegisterProblem(name string, factory func() Problem) {
	problemMu.Lock()
	defer problemMu.Unlock()
	if name == "" || factory == nil {
		panic("melissa: RegisterProblem with empty name or nil factory")
	}
	if _, dup := problemRegistry[name]; dup {
		panic(fmt.Sprintf("melissa: problem %q registered twice", name))
	}
	problemRegistry[name] = factory
}

// ProblemByName returns the registered problem with that name.
func ProblemByName(name string) (Problem, error) {
	problemMu.RLock()
	factory, ok := problemRegistry[name]
	problemMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("melissa: unknown problem %q (registered: %v)", name, Problems())
	}
	return factory(), nil
}

// Problems lists the registered problem names, sorted.
func Problems() []string {
	problemMu.RLock()
	defer problemMu.RUnlock()
	names := make([]string, 0, len(problemRegistry))
	for name := range problemRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterProblem(HeatName, Heat)
	RegisterProblem(GrayScottName, GrayScott)
}

// Registered problem names.
const (
	HeatName      = "heat"
	GrayScottName = "gray-scott"
)

// Heat returns the paper's demonstrator problem: the 2D heat equation with
// the initial temperature and four boundary temperatures sampled in
// [100, 500] K (§4.1), solved implicitly and predicted as an N×N field.
func Heat() Problem { return heatProblem{} }

type heatProblem struct{}

func (heatProblem) Name() string { return HeatName }

func (heatProblem) ParamNames() []string {
	return []string{"T_IC", "T_x1", "T_y1", "T_x2", "T_y2"}
}

func (heatProblem) ParamBounds() (min, max []float64) {
	s := sampling.HeatSpace()
	return s.Min, s.Max
}

func (heatProblem) FieldShape(cfg Config) []int { return []int{cfg.GridN, cfg.GridN} }

func (heatProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	p, err := solver.ParamsFromVector(params)
	if err != nil {
		return nil, err
	}
	return solver.New(solver.Config{N: cfg.GridN, Steps: cfg.StepsPerSim, Dt: cfg.Dt, Workers: cfg.Workers}, p)
}

func (p heatProblem) Normalizer(cfg Config) Normalizer {
	return core.NewHeatNormalizer(fieldDim(p, cfg), float64(cfg.StepsPerSim)*cfg.Dt)
}

// GrayScott returns the second registered problem: 2D Gray–Scott
// reaction–diffusion on a periodic lattice, an explicit two-species scheme
// whose pattern-forming dynamics are qualitatively different from pure
// diffusion. The surrogate predicts both concentration channels at once
// (output length 2·N²); the feed/kill rates and diffusion coefficients are
// the design parameters.
func GrayScott() Problem { return grayScottProblem{} }

type grayScottProblem struct{}

func (grayScottProblem) Name() string { return GrayScottName }

func (grayScottProblem) ParamNames() []string { return []string{"F", "k", "Du", "Dv"} }

func (grayScottProblem) ParamBounds() (min, max []float64) {
	s := sampling.GrayScottSpace()
	return s.Min, s.Max
}

func (grayScottProblem) FieldShape(cfg Config) []int { return []int{2, cfg.GridN, cfg.GridN} }

func (grayScottProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	p, err := solver.GrayScottParamsFromVector(params)
	if err != nil {
		return nil, err
	}
	return solver.NewGrayScott(solver.GrayScottConfig{N: cfg.GridN, Steps: cfg.StepsPerSim, Dt: cfg.Dt}, p)
}

func (p grayScottProblem) Normalizer(cfg Config) Normalizer {
	// Concentrations live in [0,1] by construction of the scheme.
	return core.NewFieldNormalizer(sampling.GrayScottSpace(), float64(cfg.StepsPerSim)*cfg.Dt, 0, 1, fieldDim(p, cfg))
}

// DefaultDt implements DtProvider: the Gray–Scott explicit scheme
// integrates in lattice time units with a stable step of 1 (the solver's
// own default), three orders of magnitude coarser than the heat
// equation's 0.01 s.
func (grayScottProblem) DefaultDt() float64 { return 1 }

// DtProvider is optionally implemented by problems whose natural solver
// time step differs from the framework-wide 0.01 default. RegisterFlags
// resolves -dt 0 through DefaultDtFor, so selecting a problem never runs
// it at another problem's step size.
type DtProvider interface {
	// DefaultDt returns the problem's preferred solver time step.
	DefaultDt() float64
}

// DefaultDtFor returns prob's preferred solver time step: its DefaultDt
// when it provides one, else 0.01 (the heat equation's step, the
// framework default).
func DefaultDtFor(prob Problem) float64 {
	if dp, ok := prob.(DtProvider); ok {
		return dp.DefaultDt()
	}
	return 0.01
}

// fieldDim returns the flattened output length of a problem configuration.
func fieldDim(prob Problem, cfg Config) int {
	dim := 1
	for _, d := range prob.FieldShape(cfg) {
		dim *= d
	}
	return dim
}

// problemSpace builds the sampling box from a problem's bounds.
func problemSpace(prob Problem) (sampling.Space, error) {
	min, max := prob.ParamBounds()
	space, err := sampling.NewSpace(min, max)
	if err != nil {
		return sampling.Space{}, fmt.Errorf("melissa: problem %q bounds: %w", prob.Name(), err)
	}
	if space.Dim() != len(prob.ParamNames()) {
		return sampling.Space{}, fmt.Errorf("melissa: problem %q has %d bounds for %d parameters", prob.Name(), space.Dim(), len(prob.ParamNames()))
	}
	return space, nil
}

// streamSteps drives one simulation of prob and hands every computed step
// to emit in the streamed sample layout: the float32 input vector (the
// physical parameters followed by the physical time) and the float32 field
// copy. The validation generator and the offline dataset writer share it so
// the wire layout is defined in exactly one place. emit owns both slices.
func streamSteps(cfg Config, prob Problem, params []float64, emit func(step int, input, output []float32) error) error {
	sim, err := prob.NewSimulator(cfg, params)
	if err != nil {
		return err
	}
	for sim.StepIndex() < cfg.StepsPerSim {
		if err := sim.StepOnce(); err != nil {
			return err
		}
		step := sim.StepIndex()
		input := make([]float32, 0, len(params)+1)
		for _, v := range params {
			input = append(input, float32(v))
		}
		input = append(input, float32(float64(step)*cfg.Dt))
		field := sim.Field()
		output := make([]float32, len(field))
		for i, v := range field {
			output[i] = float32(v)
		}
		if err := emit(step, input, output); err != nil {
			return err
		}
	}
	return nil
}

// Simulate runs a problem's reference solver for one parameter vector,
// returning the flattened field after each step — the ground truth that
// examples compare surrogate predictions against.
func Simulate(prob Problem, cfg Config, params []float64) ([][]float64, error) {
	if prob == nil {
		prob = Heat()
	}
	sim, err := prob.NewSimulator(cfg, params)
	if err != nil {
		return nil, err
	}
	fields := make([][]float64, 0, cfg.StepsPerSim)
	for sim.StepIndex() < cfg.StepsPerSim {
		if err := sim.StepOnce(); err != nil {
			return nil, fmt.Errorf("melissa: %s step %d: %w", prob.Name(), sim.StepIndex()+1, err)
		}
		fields = append(fields, append([]float64(nil), sim.Field()...))
	}
	return fields, nil
}
