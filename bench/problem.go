package main

import (
	"sync"
	"sync/atomic"
	"time"

	"melissa"
	"melissa/internal/core"
	"melissa/internal/sampling"
)

// epoch is the one clock every timestamp in the harness is taken against.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// replayProblem is the bench-local Problem behind stream_ingest: the same
// 5-parameter design space and N×N field as the heat equation, but each
// step is an O(n) fill instead of a CG solve, so the solver stops being the
// producer's bottleneck and the client→protocol→transport→server→buffer
// path is what the run exercises.
type replayProblem struct{}

func (replayProblem) Name() string { return "replay" }

func (replayProblem) ParamNames() []string {
	return []string{"T_IC", "T_x1", "T_y1", "T_x2", "T_y2"}
}

func (replayProblem) ParamBounds() (min, max []float64) {
	s := sampling.HeatSpace()
	return s.Min, s.Max
}

func (replayProblem) FieldShape(cfg melissa.Config) []int { return []int{cfg.GridN, cfg.GridN} }

func (replayProblem) NewSimulator(cfg melissa.Config, params []float64) (melissa.Simulator, error) {
	return &replaySim{
		params: append([]float64(nil), params...),
		steps:  cfg.StepsPerSim,
		field:  make([]float64, cfg.GridN*cfg.GridN),
	}, nil
}

func (replayProblem) Normalizer(cfg melissa.Config) melissa.Normalizer {
	return core.NewHeatNormalizer(cfg.GridN*cfg.GridN, float64(cfg.StepsPerSim)*cfg.Dt)
}

// replaySim relaxes every cell from the initial temperature toward one of
// the four boundary temperatures, linearly in time and at a rate that
// depends on the cell — smooth in (params, t), inside the sampled
// temperature range, and cheap.
type replaySim struct {
	params []float64
	steps  int
	step   int
	field  []float64
}

func (s *replaySim) StepOnce() error {
	s.step++
	frac := float64(s.step) / float64(s.steps)
	ic := s.params[0]
	for i := range s.field {
		edge := s.params[1+i&3]
		rate := float64(1+i&15) / 16
		s.field[i] = ic + (edge-ic)*frac*rate
	}
	return nil
}

func (s *replaySim) StepIndex() int   { return s.step }
func (s *replaySim) Field() []float64 { return s.field }

func (s *replaySim) Restore(step int, field []float64) error {
	s.step = step
	copy(s.field, field)
	return nil
}

// seam is what the harness observes at the plug-in boundary (Problem,
// Simulator, Normalizer) during one RunOnline call. Every run records when
// set-up ended and when each batch assembly began — the trainer normalizes
// one input row per sample while it fills a batch, so the cadence of those
// calls is the cadence of training steps, at the cost of one clock read per
// sample. With a tracer it also wraps every ensemble member and records a
// span per solver step and per send stall.
type seam struct {
	tr      *tracer
	valRows int // the validation set is normalized first, one row per step of each validation simulation
	valSims int // ... and its simulators are the first ones built
	steps   int
	group   int // input rows per synchronized step: ranks × batch size
	start   int64
	root    int32

	lastStepEnd atomic.Int64

	mu            sync.Mutex
	built         int
	ensembleStart int64 // first ensemble member constructed: set-up is over
	normCalls     int
	stepStarts    []int64 // when each synchronized step began assembling its batch
}

func newSeam(tr *tracer, sp trainSpec, batch int) *seam {
	s := &seam{tr: tr, valSims: sp.valSims, valRows: sp.valSims * sp.steps, steps: sp.steps, group: sp.ranks * batch, start: nowNs()}
	s.stepStarts = make([]int64, 0, 2*sp.sims*sp.steps/s.group)
	s.root = tr.add("launcher.ensemble", -1, s.start, s.start)
	return s
}

// stepPeriodsUs returns the time between successive batch assemblies.
func (s *seam) stepPeriodsUs() []float64 {
	out := make([]float64, 0, len(s.stepStarts))
	for i := 1; i < len(s.stepStarts); i++ {
		out = append(out, float64(s.stepStarts[i]-s.stepStarts[i-1])/1e3)
	}
	return out
}

// seamProblem wraps the workload's Problem so that what it hands to the
// framework reports to the seam. It keeps the inner problem's name, so a
// surrogate trained through it loads back through the registry as the inner
// problem.
type seamProblem struct {
	melissa.Problem
	s *seam
}

func (p seamProblem) NewSimulator(cfg melissa.Config, params []float64) (melissa.Simulator, error) {
	sim, err := p.Problem.NewSimulator(cfg, params)
	if err != nil {
		return nil, err
	}
	s := p.s
	now := nowNs()
	s.mu.Lock()
	s.built++
	validation := s.built <= s.valSims
	if !validation && s.ensembleStart == 0 {
		s.ensembleStart = now
	}
	s.mu.Unlock()
	if validation || s.tr == nil {
		return sim, nil
	}
	return &seamSim{Simulator: sim, s: s, span: s.tr.add("client.sim", s.root, now, now)}, nil
}

func (p seamProblem) Normalizer(cfg melissa.Config) melissa.Normalizer {
	return &seamNormalizer{Normalizer: p.Problem.Normalizer(cfg), s: p.s}
}

// seamSim traces one ensemble member from the solver's side of the seam:
// the solver step itself, and the gap until the next one — convert, encode,
// send and any back-pressure from the server.
type seamSim struct {
	melissa.Simulator
	s       *seam
	span    int32
	lastEnd int64
}

func (m *seamSim) StepOnce() error {
	s := m.s
	start := nowNs()
	err := m.Simulator.StepOnce()
	end := nowNs()
	if m.lastEnd != 0 {
		s.tr.add("client.send_stall", m.span, m.lastEnd, start)
	}
	s.tr.add("solver.step", m.span, start, end)
	m.lastEnd = end
	for {
		prev := s.lastStepEnd.Load()
		if end <= prev || s.lastStepEnd.CompareAndSwap(prev, end) {
			break
		}
	}
	if m.Simulator.StepIndex() >= s.steps {
		s.tr.setEnd(m.span, end)
	}
	return err
}

// seamNormalizer watches batch assembly from the outside. Ranks assemble
// their batches between the same two collectives, so every group-th call
// after the validation rows starts a new synchronized step.
type seamNormalizer struct {
	melissa.Normalizer
	s *seam
}

func (n *seamNormalizer) NormalizeInput(raw, dst []float32) {
	s := n.s
	now := nowNs()
	s.mu.Lock()
	k := s.normCalls - s.valRows
	s.normCalls++
	if k >= 0 && k%s.group == 0 {
		if last := len(s.stepStarts) - 1; last >= 0 {
			s.tr.add("core.batch_period", s.root, s.stepStarts[last], now)
		}
		s.stepStarts = append(s.stepStarts, now)
	}
	s.mu.Unlock()
	n.Normalizer.NormalizeInput(raw, dst)
}
