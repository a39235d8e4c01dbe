package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"melissa"
)

// trainSpec is one ensemble workload: a fixed amount of work (sims × steps
// through a given model and buffer), never a fixed duration — throughput
// depends on how far training has progressed.
type trainSpec struct {
	problem   func() melissa.Problem
	sims      int
	steps     int
	grid      int
	hidden    []int
	buffer    melissa.BufferPolicy
	capacity  int
	threshold int
	ranks     int
	clients   int
	valSims   int
	valEvery  int
	// mseLimit fails the run when the median final validation MSE of its
	// repetitions exceeds it; calibrated at no more than 4× the median
	// measured when the workload was defined. (One repetition in a hundred
	// ends 3× above the median on a noisy last point, so the check is on
	// the run, not on each repetition.)
	mseLimit float64
}

func (sp trainSpec) config(seed uint64) melissa.Config {
	cfg := melissa.DefaultConfig()
	cfg.Simulations = sp.sims
	cfg.GridN = sp.grid
	cfg.StepsPerSim = sp.steps
	cfg.MaxConcurrentClients = sp.clients
	cfg.Ranks = sp.ranks
	cfg.Hidden = sp.hidden
	cfg.Buffer = sp.buffer
	cfg.Capacity = sp.capacity
	cfg.Threshold = sp.threshold
	cfg.ValidationSims = sp.valSims
	cfg.ValidateEvery = sp.valEvery
	cfg.Seed = seed
	return cfg
}

// trainRep is what one RunOnline call produced, seen from outside.
type trainRep struct {
	wallS  float64 // RunOnline call to return
	setupS float64 // RunOnline call to the first ensemble member being built
	cpuS   float64 // process user+sys CPU over wallS
	res    *melissa.RunResult
	seam   *seam
	endNs  int64
}

func (r trainRep) opsPerS() float64 { return float64(r.res.Samples) / r.wallS }

// runTrainRep runs the ensemble once, to completion. The context is never
// cancelled: a pipeline that does not finish is caught by the hang guard.
func runTrainRep(sp trainSpec, seed uint64, tr *tracer) (trainRep, error) {
	runtime.GC()
	cfg := sp.config(seed)
	tr.nextRun()
	sm := newSeam(tr, sp, cfg.BatchSize)
	cfg.Problem = seamProblem{Problem: sp.problem(), s: sm}
	cpu0 := cpuSeconds()
	res, err := melissa.RunOnline(context.Background(), cfg)
	end := nowNs()
	cpu1 := cpuSeconds()
	if err != nil {
		return trainRep{}, err
	}
	tr.setEnd(sm.root, end)
	return trainRep{
		wallS:  float64(end-sm.start) / 1e9,
		setupS: float64(sm.ensembleStart-sm.start) / 1e9,
		cpuS:   cpu1 - cpu0,
		res:    res,
		seam:   sm,
		endNs:  end,
	}, nil
}

// check applies the run-failing correctness checks to one repetition and
// returns how many operations it attempted and how many of them failed.
func (sp trainSpec) check(r trainRep, notes *[]string) (attempted, failed int) {
	attempted = sp.sims * sp.steps
	if r.res.UniqueSamples != attempted {
		*notes = append(*notes, fmt.Sprintf("server.unique_samples %d, want %d", r.res.UniqueSamples, attempted))
		failed += max(attempted-r.res.UniqueSamples, r.res.UniqueSamples-attempted)
	}
	if n := r.res.ClientRestarts + r.res.ServerRestarts; n != 0 {
		*notes = append(*notes, fmt.Sprintf("%d client and %d server restarts, want 0", r.res.ClientRestarts, r.res.ServerRestarts))
		failed += n
	}
	if !(r.res.ValidationMSE > 0) {
		*notes = append(*notes, "no validation point recorded")
		failed++
	}
	return attempted, failed
}

// runTrain measures one ensemble workload. Untraced repetitions run until
// the time budget is used (at least one); the reported end-to-end values
// are medians over repetitions. With a tracer, one more repetition runs
// with spans on and the staged replay follows.
func runTrain(name string, sp trainSpec, ro runOptions) (*report, error) {
	rep := newReport(name)
	budget := ro.seconds
	if ro.tracer != nil {
		budget /= 3 // the traced repetition and the staged replay take the rest
	}
	var reps []trainRep
	began := nowNs()
	for i := 0; ; i++ {
		r, err := runTrainRep(sp, ro.seed+uint64(i), nil)
		if err != nil {
			return nil, err
		}
		a, f := sp.check(r, &rep.Notes)
		rep.Attempted += a
		rep.Failed += f
		reps = append(reps, r)
		fmt.Printf("%s rep %d: %.0f samples/s over %.2f s, %.3f CPU s per 1000 samples, val MSE %.3g\n",
			name, i+1, r.opsPerS(), r.wallS, r.cpuS/(float64(r.res.Samples)/1000), r.res.ValidationMSE)
		elapsed := float64(nowNs()-began) / 1e9
		if elapsed+r.wallS/2 > budget {
			break
		}
	}

	var ops, cpuPerKop, setup, mse []float64
	for _, r := range reps {
		ops = append(ops, r.opsPerS())
		mse = append(mse, r.res.ValidationMSE)
		cpuPerKop = append(cpuPerKop, r.cpuS/(float64(r.res.Samples)/1000))
		setup = append(setup, r.setupS)
	}
	rep.EndToEnd["ops_per_s"] = median(ops)
	rep.EndToEnd["peak_rss_mb"] = peakRSSMB()
	rep.EndToEnd["setup_s"] = median(setup)
	rep.LatencySamples = len(reps[0].seam.stepStarts) - 1
	rep.Reps = len(reps)
	if m := median(mse); m > sp.mseLimit {
		rep.Notes = append(rep.Notes, fmt.Sprintf("core.final_val_mse %.3g (median of %d repetitions) above %.3g", m, len(mse), sp.mseLimit))
		rep.Failed++
	}

	// The free counts come from the repetition with the median throughput.
	mid := reps[medianIndex(ops)]
	rep.Layers["launcher.ensemble_wall_s"] = mid.wallS
	rep.Layers["launcher.client_restarts"] = float64(mid.res.ClientRestarts)
	rep.Layers["server.unique_samples"] = float64(mid.res.UniqueSamples)
	rep.Layers["core.batches"] = float64(mid.res.Batches)
	rep.Layers["buffer.mean_occurrence"] = float64(mid.res.Samples) / float64(mid.res.UniqueSamples)
	rep.Layers["core.final_val_mse"] = median(mse)
	periods := mid.seam.stepPeriodsUs()
	rep.Layers["core.first_batch_s"] = float64(mid.seam.stepStarts[0]-mid.seam.start) / 1e9
	rep.Layers["core.batch_period_us_p50"] = median(periods)
	_, rep.Layers["core.batch_period_us_p99"] = tailPercentile(periods)
	rep.Layers["harness.cpu_s_per_kop"] = median(cpuPerKop)
	rep.Layers["harness.cpu_cores_used"] = mid.cpuS / mid.wallS

	if ro.tracer == nil {
		return rep, nil
	}

	// Traced repetition: same seed as the first untraced one, so the two
	// differ only by the spans.
	traced, err := runTrainRep(sp, ro.seed, ro.tracer)
	if err != nil {
		return nil, err
	}
	a, f := sp.check(traced, &rep.Notes)
	rep.Attempted += a
	rep.Failed += f
	st := ro.tracer.stats()
	simNs := float64(st["client.sim"].TotalNs)
	rep.Layers["solver.step_us"] = st["solver.step"].meanUs()
	rep.Layers["solver.busy_share"] = float64(st["solver.step"].TotalNs) / simNs
	rep.Layers["client.send_stall_us"] = st["client.send_stall"].meanUs()
	rep.Layers["client.stall_share"] = float64(st["client.send_stall"].TotalNs) / simNs
	rep.Layers["server.tail_s"] = float64(traced.endNs-traced.seam.lastStepEnd.Load()) / 1e9
	rep.Layers["harness.trace_overhead_share"] = 1 - traced.opsPerS()/reps[0].opsPerS()

	if err := stagedReplay(sp, ro, mid, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// medianIndex returns the index of the (lower) median element of vals.
func medianIndex(vals []float64) int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return idx[(len(idx)-1)/2]
}
