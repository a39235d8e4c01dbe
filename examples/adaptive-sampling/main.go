// Adaptive sampling: the paper's future-work direction (§5) — "adaptive
// training where the next set of clients to run is defined online according
// to the current training status". A first surrogate is trained on a small
// Monte Carlo ensemble; a second training round then draws its simulation
// parameters adaptively, scoring candidate parameter points by the current
// surrogate's error against a short solver probe and simulating where the
// surrogate is worst. The same budget spent on plain Monte Carlo serves as
// the baseline.
//
//	go run ./examples/adaptive-sampling
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"melissa"
)

const (
	gridN     = 12
	stepsSim  = 15
	dt        = 0.01
	round1    = 12 // initial Monte Carlo ensemble
	round2    = 12 // second-round budget (adaptive vs Monte Carlo)
	probeStep = 5  // solver steps used to score candidates
)

func main() {
	fmt.Printf("round 1: %d Monte Carlo simulations\n", round1)
	first, err := melissa.RunOnline(context.Background(), roundConfig(round1, nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  validation MSE after round 1: %.5f\n\n", first.ValidationMSE)

	// Baseline: another Monte Carlo round with the full two-round budget.
	mcRes, err := melissa.RunOnline(context.Background(), roundConfig(round1+round2, nil))
	if err != nil {
		log.Fatal(err)
	}

	// Adaptive: the second round scores 6 candidates per draw by the
	// round-1 surrogate's probe error and simulates the worst-predicted.
	rng := rand.New(rand.NewPCG(99, 1))
	draws := 0
	adaptiveSampler := func() []float64 {
		draws++
		if draws <= round1 {
			// Replay round 1 so both phases are in the training set.
			return uniformPoint(rand.New(rand.NewPCG(2023, uint64(draws))))
		}
		best, bestScore := uniformPoint(rng), -1.0
		for c := 0; c < 6; c++ {
			p := uniformPoint(rng)
			if s := probeError(first.Surrogate, p); s > bestScore {
				best, bestScore = p, s
			}
		}
		return best
	}
	adRes, err := melissa.RunOnline(context.Background(), roundConfig(round1+round2, adaptiveSampler))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("round 2 (%d more simulations, equal budget):\n", round2)
	fmt.Printf("  Monte Carlo validation MSE: %.5f\n", mcRes.ValidationMSE)
	fmt.Printf("  adaptive    validation MSE: %.5f\n", adRes.ValidationMSE)
	if adRes.ValidationMSE < mcRes.ValidationMSE {
		fmt.Printf("  adaptive design improved validation by %.1f%%\n",
			100*(1-adRes.ValidationMSE/mcRes.ValidationMSE))
	} else {
		fmt.Println("  no improvement at this budget — error-driven designs need")
		fmt.Println("  enough rounds for the error landscape to stabilize")
	}
}

func roundConfig(sims int, sampler func() []float64) melissa.Config {
	cfg := melissa.DefaultConfig()
	cfg.Simulations = sims
	cfg.GridN = gridN
	cfg.StepsPerSim = stepsSim
	cfg.Dt = dt
	cfg.MaxConcurrentClients = 4
	cfg.Hidden = []int{48, 48}
	cfg.Capacity = 120
	cfg.Threshold = 20
	cfg.ValidationSims = 3
	cfg.ValidateEvery = 25
	cfg.Sampler = sampler
	return cfg
}

// uniformPoint draws one unit-cube design point.
func uniformPoint(rng *rand.Rand) []float64 {
	p := make([]float64, 5)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// probeError measures the round-1 surrogate's mean squared error against a
// short solver run at the candidate parameters — the "current training
// status" signal that steers the design. A probe the solver cannot run
// stops the example: scoring it 0 would read as a perfect surrogate and
// silently never pick the candidate.
func probeError(s *melissa.Surrogate, unit []float64) float64 {
	p := make([]float64, len(unit))
	for i, u := range unit {
		p[i] = 100 + 400*u // T_IC, T_x1, T_y1, T_x2, T_y2 in [100, 500] K
	}
	cfg := melissa.Config{GridN: gridN, StepsPerSim: probeStep, Dt: dt}
	fields, err := melissa.Simulate(melissa.Heat(), cfg, p)
	if err != nil {
		log.Fatalf("probe at %v: %v", p, err)
	}
	truth := fields[probeStep-1]
	pred := s.Predict(p, float64(probeStep)*dt)
	var mse float64
	for i := range truth {
		d := pred[i] - truth[i]
		mse += d * d
	}
	return mse / float64(len(truth))
}
