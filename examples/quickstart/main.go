// Quickstart: train a deep surrogate from a small online ensemble through
// the problem-plugin API, compare one prediction against the real solver,
// and round-trip the model through a self-describing checkpoint.
//
// The pipeline is problem-agnostic: Config.Problem selects the scenario
// (here the paper's 2D heat equation; see examples/gray-scott for the
// reaction–diffusion scenario behind the exact same API).
//
//	go run ./examples/quickstart
//
// Everything here runs the training ranks inside one process. To spread
// them across OS processes, start a coordinator and one melissa-server
// member per process; the gradients are then all-reduced over a TCP ring
// between the members after each backward, and the weights come out the
// same bits as the in-process path's:
//
//	melissa-server -role coordinator -coord 127.0.0.1:7850 -members 2 -group-dir /tmp/eg &
//	melissa-server -coord 127.0.0.1:7850 -member-id 0 -members 2 -group-dir /tmp/eg ...
//	melissa-server -coord 127.0.0.1:7850 -member-id 1 -members 2 -group-dir /tmp/eg ...
//
// (concatenate the members' -addr-file outputs in member order for the
// clients; see cmd/melissa-server for the full walkthrough).
//
// To serve the trained surrogate to remote clients, publish a checkpoint
// and point melissa-serve at it — it hot-reloads every publish while
// answering predict requests with micro-batching and a prediction cache
// (see docs/serving.md):
//
//	melissa-server ... -surrogate-out model.mlsg -publish-every 500 &
//	melissa-serve -checkpoint model.mlsg -addr :9200 -watch 2s
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"

	"melissa"
)

func main() {
	cfg := melissa.DefaultConfig()
	cfg.Problem = melissa.Heat() // the default; spelled out for the tour
	cfg.Simulations = 30
	cfg.GridN = 16
	cfg.StepsPerSim = 20
	cfg.MaxConcurrentClients = 4
	cfg.Buffer = melissa.Reservoir

	fmt.Printf("training %q surrogate from %d online simulations (%d×%d grid, %d steps each)...\n",
		cfg.Problem.Name(), cfg.Simulations, cfg.GridN, cfg.GridN, cfg.StepsPerSim)
	res, err := melissa.RunOnline(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d batches, %d samples (%d unique), %.1f samples/s, validation MSE %.5f\n",
		res.Batches, res.Samples, res.UniqueSamples, res.Throughput, res.ValidationMSE)

	// Query the surrogate on unseen parameters and compare with the solver.
	// Parameters are plain vectors in the problem's ParamNames order, here
	// T_IC, T_x1, T_y1, T_x2, T_y2 in Kelvin.
	p := []float64{320, 180, 420, 260, 360}
	t := float64(cfg.StepsPerSim) * cfg.Dt / 2 // mid-trajectory
	pred := res.Surrogate.Predict(p, t)

	truth, err := melissa.Simulate(cfg.Problem, cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	ref := truth[cfg.StepsPerSim/2-1]

	var maxErr, rmse float64
	for i := range ref {
		d := math.Abs(pred[i] - ref[i])
		if d > maxErr {
			maxErr = d
		}
		rmse += d * d
	}
	rmse = math.Sqrt(rmse / float64(len(ref)))
	fmt.Printf("surrogate vs solver at t=%.2fs: RMSE %.2f K, max error %.2f K (field spans 180-420 K)\n",
		t, rmse, maxErr)

	// Checkpoints are self-describing: Save embeds the problem name and
	// architecture, so loading needs no arguments at all.
	var ckpt bytes.Buffer
	if err := res.Surrogate.Save(&ckpt); err != nil {
		log.Fatal(err)
	}
	loaded, err := melissa.LoadSurrogate(&ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint round-trip: problem %q, %d parameters, grid %d\n",
		loaded.Meta().Problem, loaded.NumParams(), loaded.Meta().GridN)

	// The surrogate predicts the center temperature trend over time.
	fmt.Println("center temperature over time (surrogate):")
	c := (cfg.GridN/2)*cfg.GridN + cfg.GridN/2
	for step := 1; step <= cfg.StepsPerSim; step += 5 {
		tt := float64(step) * cfg.Dt
		fmt.Printf("  t=%.2fs: %.1f K\n", tt, loaded.Predict(p, tt)[c])
	}
}
