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
// The server and its clients must describe the same ensemble: -problem,
// -grid, -steps, -dt and -seed must agree, and a client's -design picks
// the parameters it streams. The members of an elastic group must also
// agree on -ranks, -hidden, -batch, -buffer, -capacity and -threshold.
// melissa-server, melissa-client and melissa-launcher register these flags
// from one function, melissa.RegisterFlags, so names, defaults and meaning
// are shared; the server trains through melissa.ServerConfig, the server
// RunOnline builds. See docs/fault-tolerance.md.
//
// By default the -ranks training replicas of one process are the whole
// training group. With -coord the process instead joins an elastic training
// group — the one way several server processes train together: each member
// hosts -ranks replicas on a channel ring, bridged to the other members'
// over a TCP ring, bit-identical to the flat ring of the same size. A
// coordinator process (-role coordinator) owns membership; with every member
// alive the group trains until the ensemble completes and every buffer is
// drained, exactly like the lone process. When a peer dies the members
// re-form the rank group at a new epoch, and the group checkpoint shards
// carry both the replica weights and the server's ingest state (dedup
// bitsets + buffer contents), so survivors roll back and replayed client
// frames are discarded idempotently; clients started with reconnection
// enabled ride through the re-formation, and -max-batches gives the run a
// length that does not depend on who survived. 3-member group:
//
//	melissa-server -role coordinator -coord 127.0.0.1:7850 -members 3 -group-dir /tmp/eg &
//	for i in 0 1 2; do
//	  melissa-server -coord 127.0.0.1:7850 -member-id $i -members 3 \
//	      -group-dir /tmp/eg -clients 6 -addr-file addrs-m$i.txt &
//	done
//	cat addrs-m*.txt > addrs.txt   # clients dial all ranks, in member order
//	for i in 0 1 2 3 4 5; do melissa-client -id $i -addr-file addrs.txt & done
//	wait
//
// Every process builds the same seeded model, so the replicas start
// identical without exchanging weights; member 0 owns the summary line and
// -surrogate-out.
//
// A lone process is a group of one. With -group-dir it writes its
// checkpoint there every -ckpt-every batches, keeping the newest; started
// again on the same directory it resumes from that checkpoint (it prints
// "server: resumed from checkpoint batch B"), and only the clients whose
// simulations had not finished need re-running, with -restart 1:
//
//	melissa-server -ranks 2 -clients 4 -group-dir /tmp/ckpt -ckpt-every 50 &
//	...                      # the server dies mid-run
//	melissa-server -ranks 2 -clients 4 -group-dir /tmp/ckpt -ckpt-every 50 &
//	melissa-client -id 3 -restart 1 &
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"melissa"
	"melissa/internal/elastic"
	"melissa/internal/server"
	"melissa/internal/transport"
)

func main() {
	// The server trains what RunOnline trains from the same Config; the
	// held-out validation set is RunOnline's alone.
	cfg := melissa.DefaultConfig()
	cfg.ValidationSims = 0
	finish := melissa.RegisterFlags(flag.CommandLine, &cfg, true)
	flag.IntVar(&cfg.Simulations, "clients", 1, "expected ensemble size (Goodbyes to wait for)")
	flag.DurationVar(&cfg.WatchdogTimeout, "watchdog", 30*time.Second, "client liveness timeout (0 disables)")
	flag.StringVar(&cfg.CheckpointDir, "group-dir", "", "checkpoint directory, resumed from when it holds a checkpoint: a lone process's shards (optional; empty disables checkpoints), an elastic group's shards + manifest (required with -coord)")
	var (
		role       = flag.String("role", "server", "server|coordinator (coordinator runs the elastic group's control plane)")
		maxBatches = flag.Int("max-batches", 0, "stop training after this many batches (0 = train until the ensemble completes; set it where an elastic group should run the same schedule whoever survives)")
		addrFile   = flag.String("addr-file", "melissa-addrs.txt", "file to publish rank addresses to")
		surOut     = flag.String("surrogate-out", "", "publish a self-describing surrogate checkpoint (.mlsg) to this path, atomically — melissa-serve hot-reloads it")
		pubEvery   = flag.Int("publish-every", 0, "also publish -surrogate-out every N batches during training (0 = only at the end)")
		ckptEvery  = flag.Int("ckpt-every", 0, "checkpoint cadence in batches (0 = default); checkpoints go to -group-dir")
		gradComp   = flag.String("grad-compress", "none", "gradient all-reduce wire codec: none|f16 (f16 halves inter-node collective bytes with error feedback; all processes must agree)")
		logEvery   = flag.Duration("log-every", 0, "print training progress (batches, samples, group epoch, re-forms) at this interval (0 disables)")

		coordAddr = flag.String("coord", "", "elastic coordinator control-plane address (joins an elastic group; listen address for -role coordinator)")
		memberID  = flag.Int("member-id", 0, "elastic member ID, stable across restarts")
		members   = flag.Int("members", 3, "elastic group size in member processes (coordinator: members to wait for)")
		ioTimeout = flag.Duration("io-timeout", 5*time.Second, "ring silence tolerated before a peer is declared dead (elastic mode)")
	)
	flag.Parse()

	if *role == "coordinator" {
		if *coordAddr == "" || cfg.CheckpointDir == "" {
			fatal(fmt.Errorf("-role coordinator requires -coord and -group-dir"))
		}
		runCoordinator(*coordAddr, *members, cfg.CheckpointDir)
		return
	}
	if *role != "server" {
		fatal(fmt.Errorf("unknown -role %q (want server or coordinator)", *role))
	}

	if err := finish(); err != nil {
		fatal(err)
	}

	gradCodec, err := transport.ParseCodec(*gradComp)
	if err != nil {
		fatal(err)
	}

	ringOpts := transport.RingOptions{IOTimeout: *ioTimeout, Codec: gradCodec}

	// Two topologies, the same runtime underneath: every process hosts
	// -ranks replicas on an in-process channel ring, and an elastic group
	// bridges its members' rings over TCP, re-formed per epoch by the
	// membership. All flag validation happens before any handshake, so a
	// misconfigured process fails fast instead of forming a group its peers
	// then watch collapse.
	isProc0 := true
	var ecfg *server.ElasticConfig
	if *coordAddr != "" {
		if cfg.CheckpointDir == "" {
			fatal(fmt.Errorf("elastic mode requires -group-dir"))
		}
		ecfg = &server.ElasticConfig{
			MemberID:       *memberID,
			Coordinator:    *coordAddr,
			InitialMembers: *members,
			RingOptions:    func(int) transport.RingOptions { return ringOpts },
		}
		isProc0 = *memberID == 0
	} else if gradCodec.Compressed() {
		// The in-process channel ring never touches a network link;
		// compressing it would cost precision and save nothing.
		fatal(fmt.Errorf("-grad-compress=%s is only meaningful with -coord (single-process collectives are in-memory)", gradCodec))
	}

	scfg, err := melissa.ServerConfig(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	scfg.Elastic = ecfg
	scfg.ExpectedClients = cfg.Simulations
	scfg.Trainer.MaxBatches = *maxBatches
	scfg.CheckpointEveryBatches = *ckptEvery
	scfg.OnUnresponsive = func(id int32) {
		fmt.Fprintf(os.Stderr, "melissa-server: client %d unresponsive\n", id)
	}
	// Periodic surrogate publishing: at a synchronized step boundary on
	// global rank 0, snapshot the weights into a servable checkpoint and
	// atomically replace -surrogate-out, so a watching melissa-serve
	// hot-reloads each publish. Failures are reported, never fatal — the
	// previous publish stays valid.
	var srv *server.Server
	publish := func() error {
		tr := srv.Trainer()
		if tr == nil {
			return fmt.Errorf("no trainer yet (training has not started)")
		}
		sur, err := melissa.SurrogateFromNetwork(tr.Network(), cfg)
		if err != nil {
			return err
		}
		return melissa.PublishSurrogate(sur, *surOut)
	}
	if *surOut != "" && *pubEvery > 0 {
		prev := scfg.Trainer.OnBatchEnd
		scfg.Trainer.OnBatchEnd = func(batches int) {
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
	srv, err = server.New(scfg)
	if err != nil {
		fatal(err)
	}

	if err := os.WriteFile(*addrFile, []byte(strings.Join(srv.Addrs(), "\n")+"\n"), 0o644); err != nil {
		fatal(err)
	}
	if isProc0 {
		fmt.Printf("melissa-server: problem %s, %d rank(s) listening (%s), waiting for %d client(s)\n",
			cfg.Problem.Name(), cfg.Ranks, strings.Join(srv.Addrs(), " "), cfg.Simulations)
	}
	if *logEvery > 0 {
		go func() {
			for range time.Tick(*logEvery) {
				m := srv.Metrics()
				line := fmt.Sprintf("melissa-server: %d batches, %d samples, %.1f samples/s%s",
					m.Batches(), m.Samples(), m.Throughput(), gradWire(srv))
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
	fmt.Printf("melissa-server: trained %d batches on %d samples (%d unique), throughput %.1f samples/s%s\n",
		m.Batches(), m.Samples(), len(m.Occurrences()), m.Throughput(), gradWire(srv))
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

// gradWire is the progress and summary lines' note on gradient traffic over
// the ring's sockets, in the codec the ring negotiated; empty when none
// crossed one.
func gradWire(srv *server.Server) string {
	sent, recv := srv.Metrics().WireBytes()
	tr := srv.Trainer()
	if sent+recv == 0 || tr == nil {
		return ""
	}
	return fmt.Sprintf(", grad wire %.1f/%.1f MB tx/rx (%s)", float64(sent)/1e6, float64(recv)/1e6, tr.Comm().WireCodec())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-server:", err)
	os.Exit(1)
}
