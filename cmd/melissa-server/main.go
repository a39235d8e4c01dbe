// Command melissa-server runs a standalone Melissa training server: it
// listens for ensemble clients (started separately, e.g. with
// melissa-client), trains the surrogate online, and writes the weights when
// the ensemble completes.
//
// The rank addresses are published to -addr-file, one per line; clients
// read that file to connect. Example session:
//
//	melissa-server -ranks 2 -clients 4 -grid 16 -steps 20 -surrogate-out model.mlsg &
//	for i in 0 1 2 3; do melissa-client -id $i -grid 16 -steps 20 & done
//	wait
//
// By default all -ranks training replicas run inside one process. With
// -proc and -ranks-transport, the ranks spread across several OS processes
// — each hosting -ranks/len(processes) of them (override with -local-ranks)
// — and the gradient all-reduce travels a hierarchical communicator:
// channel rings between the ranks inside a process, bridged over a TCP
// ring between processes, bit-identical to the flat ring of the same size.
//
//	melissa-server -ranks 4 -proc 0 -ranks-transport 127.0.0.1:7700,127.0.0.1:7701 \
//	    -clients 4 -addr-file addrs-p0.txt -surrogate-out model.mlsg &
//	melissa-server -ranks 4 -proc 1 -ranks-transport 127.0.0.1:7700,127.0.0.1:7701 \
//	    -clients 4 -addr-file addrs-p1.txt &
//	cat addrs-p0.txt addrs-p1.txt > addrs.txt   # clients dial all ranks
//	for i in 0 1 2 3; do melissa-client -id $i -addr-file addrs.txt & done
//	wait
//
// With -coord the server instead joins an elastic training group: a
// coordinator process (-role coordinator) owns membership, each member
// process re-forms the rank group at a new epoch when a peer dies, and the
// group checkpoint shards carry both the replica weights and the server's
// ingest state (dedup bitsets + buffer contents), so survivors roll back
// and replayed client frames are discarded idempotently. Clients started
// with reconnection enabled ride through the re-formation. 3-member group:
//
//	melissa-server -role coordinator -coord 127.0.0.1:7850 -members 3 -group-dir /tmp/eg &
//	for i in 0 1 2; do
//	  melissa-server -coord 127.0.0.1:7850 -member-id $i -members 3 \
//	      -group-dir /tmp/eg -clients 6 -addr-file addrs-m$i.txt &
//	done
//	cat addrs-m*.txt > addrs.txt
//
// Every process builds the same seeded model, so no startup weight
// broadcast is needed; process 0 owns metrics, checkpoints and -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/ddp"
	"melissa/internal/elastic"
	"melissa/internal/opt"
	"melissa/internal/server"
	"melissa/internal/transport"
)

func main() {
	var (
		role       = flag.String("role", "server", "server|coordinator (coordinator runs the elastic group's control plane)")
		ranks      = flag.Int("ranks", 1, "training ranks (data-parallel replicas) across all server processes")
		proc       = flag.Int("proc", -1, "index of this process in -ranks-transport (-1 runs all ranks in-process)")
		transports = flag.String("ranks-transport", "", "comma-separated collective endpoints host:port, one per process (multi-process mode, requires -proc)")
		localR     = flag.Int("local-ranks", 0, "ranks hosted by this process in multi-process mode (default -ranks divided evenly)")
		clients    = flag.Int("clients", 1, "expected ensemble size (Goodbyes to wait for)")
		problem    = flag.String("problem", "heat", "registered problem ("+strings.Join(melissa.Problems(), "|")+"; must match clients)")
		gridN      = flag.Int("grid", 16, "solver grid side (must match clients)")
		steps      = flag.Int("steps", 20, "time steps per simulation (must match clients)")
		dt         = flag.Float64("dt", 0, "seconds per time step (0 = problem default)")
		hidden     = flag.String("hidden", "64,64", "comma-separated hidden layer widths")
		batch      = flag.Int("batch", 10, "batch size per rank")
		policy     = flag.String("buffer", "Reservoir", "FIFO|FIRO|Reservoir")
		capacity   = flag.Int("capacity", 200, "buffer capacity per rank")
		threshold  = flag.Int("threshold", 30, "buffer extraction threshold")
		maxBatches = flag.Int("max-batches", 0, "stop training after this many batches (0 = train until the ensemble completes)")
		seed       = flag.Uint64("seed", 2023, "seed for all stochastic components")
		addrFile   = flag.String("addr-file", "melissa-addrs.txt", "file to publish rank addresses to")
		surOut     = flag.String("surrogate-out", "", "publish a self-describing surrogate checkpoint (.mlsg) to this path, atomically — melissa-serve hot-reloads it")
		pubEvery   = flag.Int("publish-every", 0, "also publish -surrogate-out every N batches during training (0 = only at the end)")
		ckpt       = flag.String("checkpoint", "", "server checkpoint path (single-process fault tolerance)")
		ckptEvery  = flag.Int("ckpt-every", 0, "checkpoint cadence in batches, for -checkpoint and the elastic group shards (0 = default)")
		watchdog   = flag.Duration("watchdog", 30*time.Second, "client liveness timeout (0 disables)")
		gradComp   = flag.String("grad-compress", "none", "gradient all-reduce wire codec: none|f16|f16-noef (f16 halves inter-node collective bytes with error feedback; all processes must agree)")
		logEvery   = flag.Duration("log-every", 0, "print training progress (batches, samples, group epoch, re-forms) at this interval (0 disables)")

		coordAddr = flag.String("coord", "", "elastic coordinator control-plane address (joins an elastic group; listen address for -role coordinator)")
		memberID  = flag.Int("member-id", 0, "elastic member ID, stable across restarts")
		members   = flag.Int("members", 3, "elastic group size in member processes (coordinator: members to wait for)")
		groupDir  = flag.String("group-dir", "", "elastic group checkpoint directory (shards + manifest)")
		ioTimeout = flag.Duration("io-timeout", 5*time.Second, "ring silence tolerated before a peer is declared dead (elastic mode)")
		chaosDrop = flag.Float64("chaos-drop", 0, "probability a ring write is dropped (deterministic chaos injection, seeded by -seed or MELISSA_CHAOS_SEED)")
	)
	flag.Parse()

	if *role == "coordinator" {
		if *coordAddr == "" || *groupDir == "" {
			fatal(fmt.Errorf("-role coordinator requires -coord and -group-dir"))
		}
		runCoordinator(*coordAddr, *members, *groupDir)
		return
	}
	if *role != "server" {
		fatal(fmt.Errorf("unknown -role %q (want server or coordinator)", *role))
	}

	var hiddenDims []int
	for _, part := range strings.Split(*hidden, ",") {
		var h int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &h); err != nil || h < 1 {
			fatal(fmt.Errorf("invalid -hidden %q", *hidden))
		}
		hiddenDims = append(hiddenDims, h)
	}

	prob, err := melissa.ProblemByName(*problem)
	if err != nil {
		fatal(err)
	}
	if *dt <= 0 {
		*dt = melissa.DefaultDtFor(prob)
	}

	gradCodec, err := transport.ParseCodec(*gradComp)
	if err != nil {
		fatal(err)
	}

	var ringOpts transport.RingOptions
	ringOpts.IOTimeout = *ioTimeout
	ringOpts.Codec = gradCodec
	if *chaosDrop > 0 {
		chaos := transport.NewChaos(transport.ChaosConfig{
			Seed:     transport.ChaosSeed(*seed),
			DropRate: *chaosDrop,
		})
		ringOpts.Wrap = chaos.Wrap
	}

	// Three topologies, all the same runtime underneath: every process
	// hosts localRanks replicas on an in-process channel ring, and the
	// multi-process shapes bridge those rings over TCP (statically wired,
	// or re-formed per epoch by the elastic membership). All flag
	// validation happens before any handshake, so a misconfigured process
	// fails fast instead of forming a group its peers then watch collapse.
	localRanks := *ranks
	isProc0 := true
	var group ddp.RankGroup
	var ecfg *server.ElasticConfig
	switch {
	case *coordAddr != "":
		if *proc >= 0 || *transports != "" {
			fatal(fmt.Errorf("-coord (elastic mode) and -proc/-ranks-transport (static ring) are mutually exclusive"))
		}
		if *ckpt != "" {
			fatal(fmt.Errorf("-checkpoint is superseded by the group checkpoint in elastic mode (-group-dir)"))
		}
		if *groupDir == "" {
			fatal(fmt.Errorf("elastic mode requires -group-dir"))
		}
		if *maxBatches <= 0 {
			fatal(fmt.Errorf("elastic mode requires -max-batches: the schedule length is the group's shared notion of done"))
		}
		if err := os.MkdirAll(*groupDir, 0o755); err != nil {
			fatal(err)
		}
		if *localR > 0 {
			localRanks = *localR
		}
		ecfg = &server.ElasticConfig{
			MemberID:       *memberID,
			Coordinator:    *coordAddr,
			Dir:            *groupDir,
			InitialMembers: *members,
			RingOptions:    func(int) transport.RingOptions { return ringOpts },
		}
		isProc0 = *memberID == 0
	case *proc >= 0:
		if *ckpt != "" {
			// A checkpoint snapshots only this process's buffers and logs;
			// restoring a partial view would desynchronize the rank group.
			fatal(fmt.Errorf("-checkpoint is only supported in single-process mode (no -proc)"))
		}
		addrs := strings.Split(*transports, ",")
		if *transports == "" {
			fatal(fmt.Errorf("-proc requires -ranks-transport"))
		}
		if *proc >= len(addrs) {
			fatal(fmt.Errorf("-proc %d out of range for %d transport endpoints", *proc, len(addrs)))
		}
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		localRanks = *localR
		if localRanks <= 0 {
			if *ranks%len(addrs) != 0 {
				fatal(fmt.Errorf("-ranks %d does not divide across %d processes; set -local-ranks", *ranks, len(addrs)))
			}
			localRanks = *ranks / len(addrs)
		}
		if localRanks*len(addrs) != *ranks {
			fatal(fmt.Errorf("%d processes × %d local ranks != -ranks %d", len(addrs), localRanks, *ranks))
		}
		// The topology identity makes a peer launched with a different
		// -local-ranks fail at ring formation.
		ringOpts.Identity = ddp.GroupIdentity(localRanks)
		l, err := transport.ListenRing(addrs[*proc])
		if err != nil {
			fatal(fmt.Errorf("connecting rank group: %w", err))
		}
		ring, err := l.ConnectContext(context.Background(), *proc, addrs, 30*time.Second, ringOpts)
		if err != nil {
			fatal(fmt.Errorf("connecting rank group: %w", err))
		}
		group, isProc0 = ddp.GroupFromRing(ring, localRanks), *proc == 0
		defer group.Close()
	default:
		if *transports != "" {
			fatal(fmt.Errorf("-ranks-transport requires -proc"))
		}
		if *localR > 0 && *localR != *ranks {
			fatal(fmt.Errorf("-local-ranks is only meaningful with -proc or -coord"))
		}
		if gradCodec.Compressed() {
			// The in-process channel ring never touches a network link;
			// compressing it would cost precision and save nothing.
			fatal(fmt.Errorf("-grad-compress=%s is only meaningful with -proc or -coord (single-process collectives are in-memory)", gradCodec))
		}
	}

	mcfg := melissa.Config{GridN: *gridN, StepsPerSim: *steps, Dt: *dt}
	norm := core.AdaptNormalizer(prob.Normalizer(mcfg))
	cfg := server.Config{
		Ranks:      localRanks,
		Group:      group,
		Elastic:    ecfg,
		ListenHost: "127.0.0.1:0",
		Buffer: buffer.Config{
			Kind:      buffer.Kind(*policy),
			Capacity:  *capacity,
			Threshold: *threshold,
			Seed:      *seed,
		},
		Trainer: core.TrainerConfig{
			BatchSize: *batch,
			Model: core.ModelSpec{
				InputDim:  norm.InputDim(),
				Hidden:    hiddenDims,
				OutputDim: norm.OutputDim(),
				Seed:      *seed,
			},
			Normalizer:   norm,
			LearningRate: 1e-3,
			Schedule:     opt.PaperSchedule(),
			MaxBatches:   *maxBatches,
			GradCompress: gradCodec,
		},
		ExpectedClients: *clients,
		WatchdogTimeout: *watchdog,
		OnUnresponsive: func(id int32) {
			fmt.Fprintf(os.Stderr, "melissa-server: client %d unresponsive\n", id)
		},
		CheckpointPath:         *ckpt,
		CheckpointEveryBatches: *ckptEvery,
	}
	// Periodic surrogate publishing: at a synchronized step boundary on
	// global rank 0, snapshot the weights into a servable checkpoint and
	// atomically replace -surrogate-out, so a watching melissa-serve
	// hot-reloads each publish. Failures are reported, never fatal — the
	// previous publish stays valid.
	var srv *server.Server
	scfg := melissa.Config{Problem: prob, GridN: *gridN, StepsPerSim: *steps, Dt: *dt, Hidden: hiddenDims, Seed: *seed}
	publish := func() error {
		tr := srv.Trainer()
		if tr == nil {
			return fmt.Errorf("no trainer yet (elastic epoch not formed)")
		}
		sur, err := melissa.SurrogateFromNetwork(tr.Network(), scfg)
		if err != nil {
			return err
		}
		return melissa.PublishSurrogate(sur, *surOut)
	}
	if *surOut != "" && *pubEvery > 0 {
		prev := cfg.Trainer.OnBatchEnd
		cfg.Trainer.OnBatchEnd = func(batches int) {
			if batches%*pubEvery == 0 {
				if err := publish(); err != nil {
					fmt.Fprintf(os.Stderr, "melissa-server: surrogate publish failed: %v\n", err)
				}
			}
			if prev != nil {
				prev(batches)
			}
		}
	}
	srv, err = server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *ckpt != "" {
		if _, statErr := os.Stat(*ckpt); statErr == nil {
			if err := srv.RestoreCheckpoint(*ckpt); err != nil {
				fatal(fmt.Errorf("restoring checkpoint: %w", err))
			}
			fmt.Println("melissa-server: resumed from checkpoint")
		}
	}

	if err := os.WriteFile(*addrFile, []byte(strings.Join(srv.Addrs(), "\n")+"\n"), 0o644); err != nil {
		fatal(err)
	}
	if isProc0 {
		fmt.Printf("melissa-server: problem %s, %d rank(s) listening (%s), waiting for %d client(s)\n",
			prob.Name(), localRanks, strings.Join(srv.Addrs(), " "), *clients)
	}
	if *logEvery > 0 {
		go func() {
			for range time.Tick(*logEvery) {
				m := srv.Metrics()
				line := fmt.Sprintf("melissa-server: %d batches, %d samples, %.1f samples/s",
					m.Batches(), m.Samples(), m.Throughput())
				if sent, recv := m.WireBytes(); sent+recv > 0 {
					line += fmt.Sprintf(", grad wire %.1f/%.1f MB tx/rx (%s)",
						float64(sent)/1e6, float64(recv)/1e6, gradCodec)
				}
				if ecfg != nil {
					line += fmt.Sprintf(", group epoch %d, %d re-form(s)", m.GroupEpoch(), m.Reforms())
					if b := m.LastRollbackBatch(); b >= 0 {
						line += fmt.Sprintf(" (last rollback to batch %d)", b)
					}
				}
				fmt.Println(line)
			}
		}()
	}

	if err := srv.Run(context.Background()); err != nil {
		fatal(err)
	}
	if !isProc0 {
		// Metrics, the summary line and the weights belong to process 0;
		// the replicas are identical after the final synchronized step.
		return
	}
	m := srv.Metrics()
	fmt.Printf("melissa-server: trained %d batches on %d samples (%d unique), throughput %.1f samples/s\n",
		m.Batches(), m.Samples(), len(m.Occurrences()), m.Throughput())
	if ecfg != nil && m.Reforms() > 0 {
		fmt.Printf("melissa-server: survived %d group re-formation(s), finished at epoch %d\n",
			m.Reforms(), m.GroupEpoch())
	}
	if *surOut != "" {
		if err := publish(); err != nil {
			fatal(fmt.Errorf("publishing surrogate: %w", err))
		}
		fmt.Println("melissa-server: surrogate checkpoint published to", *surOut)
	}
}

// runCoordinator hosts the elastic group's control plane: it admits the
// initial membership, arbitrates epochs when members die or rejoin, and
// commits the group-checkpoint manifest.
func runCoordinator(addr string, world int, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	coord, err := elastic.NewCoordinator(elastic.CoordinatorConfig{
		Addr:  addr,
		World: world,
		Dir:   dir,
	})
	if err != nil {
		fatal(err)
	}
	if coord.ManifestBatch() >= 0 {
		fmt.Printf("melissa-server: coordinator on %s, resuming group from checkpoint batch %d\n",
			coord.Addr(), coord.ManifestBatch())
	} else {
		fmt.Printf("melissa-server: coordinator on %s, waiting for %d member(s)\n", coord.Addr(), world)
	}
	if err := coord.Wait(context.Background()); err != nil {
		fatal(err)
	}
	fmt.Printf("melissa-server: group complete at epoch %d (last checkpoint batch %d)\n",
		coord.Epoch(), coord.ManifestBatch())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-server:", err)
	os.Exit(1)
}
