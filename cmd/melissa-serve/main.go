// Command melissa-serve answers surrogate predictions over the wire
// protocol: it loads a self-describing checkpoint (written by
// melissa.PublishSurrogate: melissa-launcher's -out and melissa-server's
// -surrogate-out) and serves PredictRequest frames with adaptive
// micro-batching, one inference replica per batch worker sharing one weight
// slab, an LRU prediction cache flushed on every reload, and hot checkpoint
// reload.
//
// Typical deployment next to a training run:
//
//	melissa-server ... -surrogate-out model.mlsg -publish-every 500 &
//	melissa-serve -checkpoint model.mlsg -addr :9200 -watch 2s
//
// The server hot-reloads every checkpoint the trainer publishes — queries
// keep flowing across the swap, each answered entirely by one checkpoint
// generation. Reloads can also be requested over the wire (an admin Reload
// frame, e.g. client.PredictConn.Reload).
//
// Overload behavior is bounded by construction: the admit queue is capped
// at -shed-queue (excess requests are rejected with a typed overloaded
// error and a retry-after hint, never queued unboundedly), per-request
// deadlines are honored (expired work is rejected, not computed), and a
// client that stops reading responses is disconnected after -write-timeout
// without disturbing other connections. SIGTERM triggers a graceful drain
// (finish admitted work, then exit) bounded by -drain-timeout; a second
// signal forces immediate shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"melissa/internal/serve"
)

func main() {
	var (
		checkpoint   = flag.String("checkpoint", "", "surrogate checkpoint to serve (required, self-describing .mlsg)")
		addr         = flag.String("addr", "127.0.0.1:9200", "listen address")
		replicas     = flag.Int("replicas", 2, "batch workers, each with an inference replica sharing the weight slab")
		maxBatch     = flag.Int("max-batch", 32, "requests coalesced into one fused forward pass")
		batchWait    = flag.Duration("batch-wait", 500*time.Microsecond, "micro-batch latency budget (SLO knob; batches close at -max-batch or this deadline)")
		shedQueue    = flag.Int("shed-queue", 0, "admit-queue capacity = load-shedding threshold (0 = 4*replicas*max-batch)")
		writeTimeout = flag.Duration("write-timeout", 5*time.Second, "per-frame response write deadline; a slower client is disconnected (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM: finish admitted work within this, then force-close")
		cache        = flag.Int("cache", 4096, "prediction cache entries, flushed on every reload (0 disables)")
		watch        = flag.Duration("watch", 0, "poll the checkpoint file and hot-reload new publishes (0 disables)")
		statsEvery   = flag.Duration("stats-every", 0, "print serving stats at this interval (0 disables)")
	)
	flag.Parse()
	if *checkpoint == "" {
		fatal(fmt.Errorf("-checkpoint is required"))
	}

	s, err := serve.LoadServer(serve.Config{
		CheckpointPath: *checkpoint,
		Replicas:       *replicas,
		MaxBatch:       *maxBatch,
		BatchWait:      *batchWait,
		QueueSize:      *shedQueue,
		WriteTimeout:   *writeTimeout,
		CacheEntries:   *cache,
		WatchInterval:  *watch,
	})
	if err != nil {
		fatal(err)
	}

	// SIGTERM/SIGINT → graceful drain. ListenAndServe returns as soon as
	// the drain closes the listener, so main waits on drained before
	// reporting the final stats.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "melissa-serve: draining (up to %v; signal again to force)\n", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "melissa-serve: forcing shutdown")
			cancel()
		}()
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "melissa-serve: drain cut short:", err)
		}
		close(drained)
	}()

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := s.Stats()
				fmt.Printf("melissa-serve: epoch %d, %d req, %d resp, %d batches (%.1f rows/batch), cache %d/%d/%d hit/miss/evict, %d reloads, %d errors, queue %d/%d, %d shed, %d expired, %d slow-client drops\n",
					st.Epoch, st.Requests, st.Responses, st.Batches, avg(st.BatchRows, st.Batches),
					st.Hits, st.Misses, st.Evictions, st.Reloads, st.Errors,
					st.Queue, st.QueueCap, st.Shed, st.DeadlineExpired, st.SlowClients)
			}
		}()
	}

	fmt.Printf("melissa-serve: serving %s on %s (%d replicas, batch<=%d within %v, cache %d)\n",
		*checkpoint, *addr, *replicas, *maxBatch, *batchWait, *cache)
	if err := s.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	// A nil return only happens when the signal handler started the drain —
	// wait for its verdict before reporting.
	<-drained
	st := s.Stats()
	fmt.Printf("melissa-serve: served %d responses in %d batches, %d cache hits, %d reloads, %d shed, %s\n",
		st.Responses, st.Batches, st.Hits, st.Reloads, st.Shed, drainOutcome(st.Drain))
}

// drainOutcome renders Stats.Drain for the exit line.
func drainOutcome(d uint32) string {
	switch d {
	case serve.DrainClean:
		return "drained clean"
	case serve.DrainForced:
		return "drain forced"
	case serve.DrainActive:
		return "drain interrupted"
	default:
		return "closed without drain"
	}
}

func avg(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melissa-serve:", err)
	os.Exit(1)
}
