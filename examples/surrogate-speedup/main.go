// Surrogate speedup: the downstream use case motivating deep surrogates
// (paper §1) — once trained, the surrogate answers parameter-sweep queries
// orders of magnitude faster than the solver. This example trains a
// surrogate online, then times a 200-configuration design sweep both ways
// and reports the speedup and accuracy trade-off.
//
//	go run ./examples/surrogate-speedup
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"time"

	"melissa"
)

func main() {
	cfg := melissa.DefaultConfig()
	cfg.Simulations = 40
	cfg.GridN = 16
	cfg.StepsPerSim = 20
	cfg.MaxConcurrentClients = 4
	cfg.ValidationSims = 2

	fmt.Println("training surrogate online...")
	start := time.Now()
	res, err := melissa.RunOnline(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	trainTime := time.Since(start)
	fmt.Printf("trained in %v (validation MSE %.5f)\n\n", trainTime.Round(time.Millisecond), res.ValidationMSE)

	// A design sweep: 200 random configurations (T_IC, T_x1, T_y1, T_x2,
	// T_y2 in [100, 500] K), field requested at t_final. The solver takes
	// the parameters in float64, the surrogate's replica in float32, as the
	// wire carries them.
	const sweep = 200
	rng := rand.New(rand.NewPCG(7, 7))
	params := make([][]float64, sweep)
	queries := make([][]float32, sweep)
	tFinal := float64(cfg.StepsPerSim) * cfg.Dt
	for i := range params {
		params[i], queries[i] = make([]float64, 5), make([]float32, 5)
		for j := range params[i] {
			params[i][j] = 100 + 400*rng.Float64()
			queries[i][j] = float32(params[i][j])
		}
	}

	// Surrogate: fused forward passes on one replica, batchRows queries at
	// a time — melissa-serve's batch workers run the same call at their
	// default -max-batch.
	const batchRows = 32
	rep := res.Surrogate.NewReplica(batchRows)
	preds := make([][]float32, sweep)
	start = time.Now()
	for lo := 0; lo < sweep; lo += batchRows {
		err := rep.PredictBatchRaw(min(batchRows, sweep-lo),
			func(i int) ([]float32, float32) { return queries[lo+i], float32(tFinal) },
			func(i int, field []float32) { preds[lo+i] = append([]float32(nil), field...) })
		if err != nil {
			log.Fatal(err)
		}
	}
	surrogateTime := time.Since(start)

	// Solver: full time integration per configuration (sampled subset to
	// keep the example fast; scaled to the full sweep).
	const solverSubset = 20
	start = time.Now()
	var rmseSum float64
	for i := 0; i < solverSubset; i++ {
		fields, err := melissa.Simulate(melissa.Heat(), cfg, params[i])
		if err != nil {
			log.Fatal(err)
		}
		truth := fields[len(fields)-1]
		var mse float64
		for j := range truth {
			d := float64(preds[i][j]) - truth[j]
			mse += d * d
		}
		rmseSum += math.Sqrt(mse / float64(len(truth)))
	}
	solverSubsetTime := time.Since(start)
	solverFullEstimate := solverSubsetTime * sweep / solverSubset

	fmt.Printf("design sweep of %d configurations (%d×%d field at t=%.2fs):\n", sweep, cfg.GridN, cfg.GridN, tFinal)
	fmt.Printf("  surrogate (replica):   %12v\n", surrogateTime.Round(time.Microsecond))
	fmt.Printf("  solver (extrapolated): %12v\n", solverFullEstimate.Round(time.Millisecond))
	fmt.Printf("  speedup:               %12.0f×\n", float64(solverFullEstimate)/float64(surrogateTime))
	fmt.Printf("  mean field RMSE:       %12.2f K (on a 100-500 K range)\n", rmseSum/solverSubset)
	fmt.Println()
	fmt.Println("amortization: the surrogate pays for its one-off training after")
	fmt.Printf("≈%.0f solver-equivalent sweeps of this size.\n",
		float64(trainTime)/float64(solverFullEstimate))
}
