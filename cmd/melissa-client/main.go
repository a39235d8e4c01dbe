// Command melissa-client runs one ensemble member: it simulates the
// selected problem at the member's point of the seeded design (-id) and
// streams every computed time step to the training server whose rank
// addresses are published in -addr-file. This is the standalone-process
// counterpart of the in-process clients the launcher spawns.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"melissa"
	"melissa/internal/client"
	"melissa/internal/solver"
)

func main() {
	cfg := melissa.DefaultConfig()
	finish := melissa.RegisterFlags(flag.CommandLine, &cfg, false)
	flag.StringVar(&cfg.Design, "design", "monte-carlo", "experimental design: monte-carlo|latin-hypercube|halton")
	var (
		id       = flag.Int("id", 0, "client / simulation id (also selects the member's drawn parameters)")
		addrFile = flag.String("addr-file", "melissa-addrs.txt", "file with server rank addresses")
		restart  = flag.Int("restart", 0, "restart count (server discards replayed steps)")
		reconn   = flag.Bool("reconnect", false, "survive server rank deaths: dial only reachable ranks, redial dead ones in the background, drop their frames meanwhile (elastic server groups)")
		ckptDir  = flag.String("checkpoint-dir", "", "resume from solver checkpoints in this directory")
	)
	flag.Parse()
	if err := finish(); err != nil {
		fatal(err)
	}
	prob := cfg.Problem

	data, err := os.ReadFile(*addrFile)
	if err != nil {
		fatal(fmt.Errorf("reading %s (is the server running?): %w", *addrFile, err))
	}
	var addrs []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			addrs = append(addrs, line)
		}
	}

	params, err := melissa.MemberParams(cfg, *id)
	if err != nil {
		fatal(err)
	}

	job := client.Job{
		Client: client.Config{
			ClientID:          *id,
			SimID:             *id,
			ServerAddrs:       addrs,
			HeartbeatInterval: 2 * time.Second,
			Restart:           *restart,
			Reconnect:         *reconn,
		},
		NewSim: func() (solver.Simulator, error) { return prob.NewSimulator(cfg, params) },
		Params: params,
		Steps:  cfg.StepsPerSim,
		Dt:     cfg.Dt,
	}
	if *ckptDir != "" {
		job.Checkpoint = &client.FileCheckpointer{Dir: *ckptDir, Every: 5}
	}
	fmt.Printf("melissa-client %d: problem %s, params %v, %d steps on %d-rank server\n",
		*id, prob.Name(), params, cfg.StepsPerSim, len(addrs))
	if err := client.Run(context.Background(), job); err != nil {
		fatal(err)
	}
	fmt.Printf("melissa-client %d: done\n", *id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-client:", err)
	os.Exit(1)
}
