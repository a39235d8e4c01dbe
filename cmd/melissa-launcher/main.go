// Command melissa-launcher runs the complete online-training workflow on
// the local machine: it brings up the training server, submits the ensemble
// clients with bounded concurrency, recovers from client failures, and
// writes the trained surrogate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"melissa"
)

func main() {
	cfg := melissa.DefaultConfig()
	finish := melissa.RegisterFlags(flag.CommandLine, &cfg, true)
	flag.IntVar(&cfg.Simulations, "simulations", cfg.Simulations, "ensemble size")
	flag.IntVar(&cfg.MaxConcurrentClients, "concurrent", cfg.MaxConcurrentClients, "max simultaneous clients")
	flag.IntVar(&cfg.ValidationSims, "validation-sims", cfg.ValidationSims, "held-out validation simulations")
	out := flag.String("out", "surrogate.bin", "trained surrogate checkpoint, published atomically")
	timeout := flag.Duration("timeout", 0, "overall run timeout (0 = none)")
	flag.Parse()
	if err := finish(); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := melissa.RunOnline(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ensemble complete in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  batches:          %d\n", res.Batches)
	fmt.Printf("  samples trained:  %d (%d unique)\n", res.Samples, res.UniqueSamples)
	fmt.Printf("  throughput:       %.1f samples/s\n", res.Throughput)
	fmt.Printf("  validation MSE:   %.6f (%.1f K²)\n", res.ValidationMSE, res.ValidationMSEKelvin)
	fmt.Printf("  restarts:         %d client, %d server\n", res.ClientRestarts, res.ServerRestarts)
	if *out != "" {
		if err := melissa.PublishSurrogate(res.Surrogate, *out); err != nil {
			fatal(err)
		}
		fmt.Printf("  surrogate saved:  %s (%d parameters)\n", *out, res.Surrogate.NumParams())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-launcher:", err)
	os.Exit(1)
}
