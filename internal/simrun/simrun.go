// Package simrun replays the paper's ensemble-training runs on the
// discrete-event cluster simulator: scheduled clients produce time steps at
// the calibrated solver rate, stream them round-robin into per-rank
// training buffers (the real policies from internal/buffer), and
// synchronized "GPU" training steps consume batches at the calibrated
// device rate. Timing-only runs use key-only samples and reproduce the
// throughput dynamics of Figure 2 and Tables 1-2; quality runs plug real
// solver data and a real training callback into the same machinery for
// Figures 4-6.
package simrun

import (
	"errors"
	"fmt"

	"melissa/internal/buffer"
	"melissa/internal/cluster"
	"melissa/internal/des"
	"melissa/internal/scheduler"
)

// Options configures a simulated ensemble run.
type Options struct {
	Model cluster.PerfModel

	// Ensemble shape.
	Simulations    int
	StepsPerSim    int
	CoresPerClient int
	// TotalCores is the client partition size; concurrency is
	// TotalCores/CoresPerClient (the paper's c concurrent clients).
	TotalCores int
	// Series optionally splits submission into successive groups (Fig 2:
	// 100, 100, 50); the next series starts SeriesGapSec after the
	// previous one fully finishes. Empty = one series.
	Series []int

	// Server shape.
	GPUs      int
	BatchSize int
	Buffer    buffer.Config // per-rank; seed offset by rank

	// MakeClient returns the sample generator for one simulation; nil
	// uses key-only samples (timing studies). Called once per client at
	// its (re)start on the virtual clock.
	MakeClient func(simID int) func(step int) buffer.Sample

	// OnTrainStep, when set, receives every synchronized step's per-rank
	// batches — the hook quality experiments use to run real training.
	OnTrainStep func(step int, batches [][]buffer.Sample)

	// MaxSteps optionally bounds the number of synchronized training
	// steps (0 = until drained).
	MaxSteps int

	// LeanResult disables the population trace and per-sample occurrence
	// map, bounding memory for very large runs (Table 2's 2M-sample
	// ensemble); Unique is then tracked with a counting set of keys only.
	LeanResult bool
}

func (o Options) validate() error {
	if o.Simulations < 1 || o.StepsPerSim < 1 {
		return fmt.Errorf("simrun: ensemble %d sims × %d steps invalid", o.Simulations, o.StepsPerSim)
	}
	if o.GPUs < 1 || o.BatchSize < 1 {
		return fmt.Errorf("simrun: %d GPUs batch %d invalid", o.GPUs, o.BatchSize)
	}
	if o.CoresPerClient < 1 || o.TotalCores < o.CoresPerClient {
		return fmt.Errorf("simrun: cores %d/%d invalid", o.CoresPerClient, o.TotalCores)
	}
	if len(o.Series) > 0 {
		sum := 0
		for _, s := range o.Series {
			if s < 1 {
				return errors.New("simrun: series sizes must be positive")
			}
			sum += s
		}
		if sum != o.Simulations {
			return fmt.Errorf("simrun: series sum %d != simulations %d", sum, o.Simulations)
		}
	}
	return nil
}

// TracePoint samples the state of rank 0's buffer over virtual time
// (Figure 2 bottom panel).
type TracePoint struct {
	T      des.Time
	Seen   int
	Unseen int
	Total  int
}

// StepPoint records one synchronized training step (Figure 2 top panel is
// derived from these).
type StepPoint struct {
	T       des.Time // completion time
	Samples int      // consumed across ranks this step
}

// Result summarizes a simulated run.
type Result struct {
	// TrainingEnd is the virtual time the last training step completed.
	TrainingEnd des.Time
	// GenerationEnd is the virtual time the last client finished.
	GenerationEnd des.Time
	Batches       int
	Samples       int // consumed, including Reservoir repetitions
	Unique        int // distinct samples consumed at least once
	Occurrences   map[buffer.Key]int
	Steps         []StepPoint
	Trace         []TracePoint
}

// MeanThroughput is consumed samples per virtual second of training.
func (r *Result) MeanThroughput() float64 {
	if r.TrainingEnd <= 0 {
		return 0
	}
	return float64(r.Samples) / r.TrainingEnd
}

// ThroughputSeries computes the paper's Figure 2 metric: throughput
// measured over each window of `window` successive batches.
func (r *Result) ThroughputSeries(window int) (times []des.Time, rates []float64) {
	if window < 1 {
		window = 10
	}
	var t0 des.Time
	samples := 0
	for i, sp := range r.Steps {
		samples += sp.Samples
		if (i+1)%window == 0 {
			dt := sp.T - t0
			if dt > 0 {
				times = append(times, sp.T)
				rates = append(rates, float64(samples)/dt)
			}
			t0 = sp.T
			samples = 0
		}
	}
	return times, rates
}

// Run executes the simulated ensemble run to completion.
func Run(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := newState(opts)
	s.submitSeries(0)
	s.sim.Run()
	if !s.done {
		return nil, errors.New("simrun: event queue drained before training completed (likely a stall: production stopped below buffer threshold)")
	}
	return s.result, nil
}

type state struct {
	opts  Options
	sim   *des.Simulation
	sched *scheduler.Cluster

	policies []*buffer.Policy
	queues   [][]buffer.Sample // per-rank network ("ZMQ") queues

	goodbyes int
	ended    bool

	// trainer state
	batches   [][]buffer.Sample
	inStep    bool
	done      bool
	stepCount int

	uniqueSet map[buffer.Key]struct{} // LeanResult mode
	result    *Result
}

func newState(opts Options) *state {
	sim := des.New()
	st := &state{
		opts:  opts,
		sim:   sim,
		sched: scheduler.New(sim, opts.TotalCores),
	}
	if opts.LeanResult {
		st.uniqueSet = make(map[buffer.Key]struct{})
		st.result = &Result{}
	} else {
		st.result = &Result{Occurrences: make(map[buffer.Key]int)}
	}
	st.sched.SubmitOverheadSec = opts.Model.LauncherSubmitSec
	st.policies = make([]*buffer.Policy, opts.GPUs)
	st.queues = make([][]buffer.Sample, opts.GPUs)
	st.batches = make([][]buffer.Sample, opts.GPUs)
	for r := range st.policies {
		cfg := opts.Buffer
		cfg.Seed += uint64(r) * 1000003
		p, err := buffer.New(cfg)
		if err != nil {
			panic(err) // validated kinds only reach here
		}
		st.policies[r] = p
	}
	return st
}

// series returns the submission groups.
func (s *state) series() []int {
	if len(s.opts.Series) > 0 {
		return s.opts.Series
	}
	return []int{s.opts.Simulations}
}

// submitSeries schedules the idx-th client series; the next series is
// submitted SeriesGapSec after this one fully completes (§4.3).
func (s *state) submitSeries(idx int) {
	series := s.series()
	if idx >= len(series) {
		return
	}
	base := 0
	for i := 0; i < idx; i++ {
		base += series[i]
	}
	remaining := series[idx]
	for i := 0; i < series[idx]; i++ {
		simID := base + i
		s.sched.Submit(s.opts.CoresPerClient, func(release func()) {
			s.runClient(simID, func() {
				release()
				remaining--
				if remaining == 0 {
					if idx+1 < len(series) {
						s.sim.After(s.opts.Model.SeriesGapSec, func() { s.submitSeries(idx + 1) })
					} else {
						s.result.GenerationEnd = s.sim.Now()
						s.clientDoneAll()
					}
				}
			})
		})
	}
}

// runClient emits one step every SolverStepSec, round-robin across ranks
// starting at the client id (§3.2.2), then signals a goodbye.
func (s *state) runClient(simID int, done func()) {
	gen := func(step int) buffer.Sample { return buffer.Sample{SimID: simID, Step: step} }
	if s.opts.MakeClient != nil {
		gen = s.opts.MakeClient(simID)
	}
	stepSec := s.opts.Model.SolverStepSec(s.opts.CoresPerClient)
	var produce func(step int)
	produce = func(step int) {
		if step > s.opts.StepsPerSim {
			s.goodbye()
			done()
			return
		}
		s.sim.After(stepSec, func() {
			rank := (simID + step) % s.opts.GPUs
			s.queues[rank] = append(s.queues[rank], gen(step))
			s.deliver(rank)
			s.pump()
			produce(step + 1)
		})
	}
	produce(1)
}

func (s *state) goodbye() {
	s.goodbyes++
}

// clientDoneAll fires when every series has finished: all goodbyes are in,
// reception ends on every rank and thresholds lift (§3.2.3).
func (s *state) clientDoneAll() {
	if s.ended {
		return
	}
	s.ended = true
	for _, p := range s.policies {
		p.EndReception()
	}
	s.pump()
}

// deliver moves queued samples into the rank's buffer while it accepts
// them; a full buffer suspends delivery (the paper's production stall) and
// retries after the trainer consumes. It never re-enters the trainer:
// callers invoke pump explicitly, keeping batch assembly non-reentrant.
func (s *state) deliver(rank int) {
	q := s.queues[rank]
	i := 0
	for i < len(q) && s.policies[rank].Put(q[i]) {
		i++
	}
	s.queues[rank] = q[i:]
}

// pump advances the synchronized trainer: fill per-rank batches from the
// policies, and when every rank is ready (full batch, or draining), charge
// one TrainStepSec to the clock.
func (s *state) pump() {
	if s.inStep || s.done {
		return
	}
	if s.opts.MaxSteps > 0 && s.stepCount >= s.opts.MaxSteps {
		s.finish()
		return
	}
	ready := true
	for r := range s.batches {
		for len(s.batches[r]) < s.opts.BatchSize {
			sample, ok := s.policies[r].TryGet()
			if !ok {
				// Extraction may have freed buffer space (FIFO/FIRO
				// evict on read): retry stalled deliveries, then the
				// policy, before giving up on this rank.
				before := len(s.queues[r])
				s.deliver(r)
				if len(s.queues[r]) == before {
					break
				}
				continue
			}
			s.batches[r] = append(s.batches[r], sample)
			s.deliver(r) // consuming may unblock a stalled producer queue
		}
		if len(s.batches[r]) < s.opts.BatchSize && !s.policies[r].Drained() {
			ready = false
		}
	}
	if !ready {
		s.recordTrace()
		return
	}
	total := 0
	for r := range s.batches {
		total += len(s.batches[r])
	}
	if total == 0 {
		s.finish()
		return
	}
	s.inStep = true
	s.recordTrace()
	s.sim.After(s.opts.Model.TrainStepSec(s.opts.GPUs), func() { s.completeStep() })
}

func (s *state) completeStep() {
	s.stepCount++
	total := 0
	for r := range s.batches {
		total += len(s.batches[r])
		for _, sample := range s.batches[r] {
			if s.opts.LeanResult {
				s.uniqueSet[sample.Key()] = struct{}{}
			} else {
				s.result.Occurrences[sample.Key()]++
			}
		}
	}
	if s.opts.OnTrainStep != nil {
		s.opts.OnTrainStep(s.stepCount, s.batches)
	}
	s.result.Batches++
	s.result.Samples += total
	s.result.Steps = append(s.result.Steps, StepPoint{T: s.sim.Now(), Samples: total})
	for r := range s.batches {
		s.batches[r] = s.batches[r][:0]
	}
	s.inStep = false
	s.recordTrace()
	// Consuming freed space: retry stalled deliveries before refilling.
	for r := range s.queues {
		s.deliver(r)
	}
	s.pump()
}

func (s *state) finish() {
	if s.done {
		return
	}
	s.done = true
	s.result.TrainingEnd = s.sim.Now()
	if s.opts.LeanResult {
		s.result.Unique = len(s.uniqueSet)
	} else {
		s.result.Unique = len(s.result.Occurrences)
	}
}

// recordTrace appends rank 0's buffer population at the current time.
func (s *state) recordTrace() {
	if s.opts.LeanResult {
		return
	}
	p := s.policies[0]
	s.result.Trace = append(s.result.Trace, TracePoint{
		T: s.sim.Now(), Seen: p.SeenCount(), Unseen: p.UnseenCount(), Total: p.Len(),
	})
}
