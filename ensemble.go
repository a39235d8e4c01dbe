package melissa

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"melissa/internal/buffer"
	"melissa/internal/sampling"
)

// RegisterFlags registers on fs the flags every process of a run must agree
// on — -problem, -grid, -steps, -dt and -seed — with cfg's values as
// defaults. A restarted client regenerates its trajectory from them and the
// server deduplicates it by (sim, step), so both hold only inside one
// ensemble. With training it also registers the trainer's flags: -ranks,
// -hidden, -batch, -buffer, -capacity and -threshold.
//
// The flags write into cfg as fs parses them. The returned function, called
// after Parse, finishes the job: it resolves -problem, parses -hidden and
// turns -dt 0 into the problem's DefaultDtFor.
func RegisterFlags(fs *flag.FlagSet, cfg *Config, training bool) func() error {
	problem := fs.String("problem", cfg.problem().Name(), "registered problem ("+strings.Join(Problems(), "|")+")")
	fs.IntVar(&cfg.GridN, "grid", cfg.GridN, "solver grid side")
	fs.IntVar(&cfg.StepsPerSim, "steps", cfg.StepsPerSim, "time steps per simulation")
	fs.Float64Var(&cfg.Dt, "dt", 0, "seconds per time step (0 = the problem's default)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "seed for every stochastic component, the experimental design included")
	var hidden *string
	if training {
		widths := make([]string, len(cfg.Hidden))
		for i, h := range cfg.Hidden {
			widths[i] = strconv.Itoa(h)
		}
		kinds := make([]string, len(buffer.Kinds()))
		for i, k := range buffer.Kinds() {
			kinds[i] = string(k)
		}
		fs.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "data-parallel training ranks hosted by this process")
		hidden = fs.String("hidden", strings.Join(widths, ","), "comma-separated hidden layer widths")
		fs.IntVar(&cfg.BatchSize, "batch", cfg.BatchSize, "batch size per rank")
		fs.StringVar((*string)(&cfg.Buffer), "buffer", string(cfg.Buffer), "training buffer policy: "+strings.Join(kinds, "|")+" (UniformEvict is the Reservoir's eviction ablation)")
		fs.IntVar(&cfg.Capacity, "capacity", cfg.Capacity, "buffer capacity per rank")
		fs.IntVar(&cfg.Threshold, "threshold", cfg.Threshold, "buffer extraction threshold")
	}
	return func() error {
		prob, err := ProblemByName(*problem)
		if err != nil {
			return err
		}
		cfg.Problem = prob
		switch {
		case cfg.Dt == 0:
			cfg.Dt = DefaultDtFor(prob)
		case !validDt(cfg.Dt):
			return fmt.Errorf("melissa: -dt %g must be finite and > 0, or 0 for the problem's default", cfg.Dt)
		}
		if hidden == nil {
			return nil
		}
		cfg.Hidden = nil
		for _, part := range strings.Split(*hidden, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || h < 1 {
				return fmt.Errorf("melissa: invalid -hidden %q: want comma-separated widths ≥ 1", *hidden)
			}
			cfg.Hidden = append(cfg.Hidden, h)
		}
		return nil
	}
}

// MemberParams returns the physical parameters of ensemble member id: the
// point RunOnline and GenerateDataset give that member, so a standalone
// client started with the ensemble's flags simulates the same member. A
// Config.Sampler is called id+1 times.
func MemberParams(cfg Config, id int) ([]float64, error) {
	if id < 0 {
		return nil, fmt.Errorf("melissa: member id %d must be ≥ 0", id)
	}
	space, err := problemSpace(cfg.problem())
	if err != nil {
		return nil, err
	}
	params, err := drawParams(cfg, space, id+1)
	if err != nil {
		return nil, err
	}
	return params[id], nil
}

// drawParams draws the first n members' parameters in member order:
// Config.Sampler when set, else the Config.Design method (Monte Carlo by
// default), each point scaled into space. A point of the wrong dimension
// (a custom sampler is user code) is an error.
func drawParams(cfg Config, space sampling.Space, n int) ([][]float64, error) {
	next := cfg.Sampler
	if next == nil {
		kind := sampling.Kind(cfg.Design)
		if cfg.Design == "" {
			kind = sampling.MonteCarloKind
		}
		design, err := sampling.New(kind, space.Dim(), cfg.Seed, 0)
		if err != nil {
			return nil, err
		}
		next = design.Next
	}
	params := make([][]float64, n)
	for i := range params {
		pt := next()
		if len(pt) != space.Dim() {
			return nil, fmt.Errorf("melissa: design returned a %d-dimensional point for member %d, problem %q wants %d", len(pt), i, cfg.problem().Name(), space.Dim())
		}
		params[i] = space.Scale(pt)
	}
	return params, nil
}
