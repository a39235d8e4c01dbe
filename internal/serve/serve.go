// Package serve implements the surrogate prediction service behind
// melissa-serve: it loads a trained surrogate checkpoint and answers
// PredictRequest frames over the training stack's wire protocol.
//
// The request path is built from three pieces. Adaptive micro-batching:
// connection readers admit requests into one queue, and batch workers
// coalesce whatever is in flight into a single fused-GEMM replica call — a
// batch closes when it reaches the size cap or when the oldest request has
// waited Config.BatchWait, whichever comes first, so the batch size adapts
// to the offered load (full batches at saturation, single-request batches
// with one BatchWait of added latency when idle). One replica per worker:
// each worker evaluates on its own melissa.Replica sharing the one weight
// slab, so N workers scale across cores without N copies of the model. A
// prediction cache: an LRU keyed on the exact query bits answers repeated
// queries without touching a replica (an answer depends on its query alone,
// so a cached field is bit-identical to a recomputed one).
//
// Checkpoints hot-reload without dropping requests: a reload loads the new
// surrogate and publishes it with one atomic pointer swap, tagged with a new
// epoch. In-flight batches finish on the model they started with — every
// response is computed entirely by one epoch's weights, never a torn mix —
// and a worker makes itself a replica of the new model when it first picks
// it up. Every reload flushes the cache, so stale fields are never served.
// Reloads trigger from an admin Reload frame or from watching the
// checkpoint file for a new atomic publish (melissa.PublishSurrogate).
//
// Overload and misbehaving clients degrade the service predictably rather
// than collectively. Admission never blocks: when the queue is at capacity
// the request is shed with a typed overloaded error and a retry-after hint
// instead of stalling the connection's reader. Requests may carry a
// relative deadline (PredictRequest.DeadlineMs); one that expires while
// queued is rejected at batch assembly, never computed. Each connection's
// write side is owned by a dedicated writer goroutine draining a bounded
// outbox of pre-encoded frames, so batch workers never touch a socket; a
// client that stops reading (outbox overflow or write-deadline expiry) has
// only its own connection torn down. Drain stops admission and completes
// the work already accepted before closing.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"melissa"
	"melissa/internal/protocol"
)

// Config tunes a Server. The zero value of any field selects its default.
type Config struct {
	// CheckpointPath is the checkpoint file re-read by Reload requests with
	// an empty path and by the file watcher. Optional if neither is used.
	CheckpointPath string
	// Replicas is the number of batch workers, each with a private
	// inference replica sharing the model's weight slab. Default 2.
	Replicas int
	// MaxBatch caps how many requests one worker coalesces into a fused
	// forward pass; a capacity only, answers do not depend on it. Default 32.
	MaxBatch int
	// BatchWait is the micro-batching latency budget: how long an admitted
	// request may wait for companions before its batch closes regardless of
	// size. This is the knob that trades tail latency for batching
	// efficiency. Default 500µs; negative disables waiting (every batch
	// closes as soon as the queue drains).
	BatchWait time.Duration
	// QueueSize bounds the admit queue and is therefore the load-shedding
	// threshold: a request arriving with the queue full is answered
	// immediately with an overloaded error instead of waiting. Default
	// 4*Replicas*MaxBatch.
	QueueSize int
	// WriteTimeout bounds each response-frame write to a client socket.
	// A write that outlives it marks the client slow and tears down that
	// one connection. Default 5s; negative disables the deadline.
	WriteTimeout time.Duration
	// OutboxFrames bounds each connection's response outbox — frames
	// encoded but not yet written by the connection's writer goroutine.
	// Overflow means the client is not draining responses, and tears the
	// connection down. Default max(64, 4*MaxBatch).
	OutboxFrames int
	// CacheEntries bounds the prediction cache; 0 disables it (a negative
	// value also disables it). Every reload flushes it.
	CacheEntries int
	// WatchInterval is how often the checkpoint file is polled for a new
	// publish; 0 disables watching.
	WatchInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWait == 0 {
		c.BatchWait = 500 * time.Microsecond
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4 * c.Replicas * c.MaxBatch
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
	if c.OutboxFrames <= 0 {
		c.OutboxFrames = 4 * c.MaxBatch
		if c.OutboxFrames < 64 {
			c.OutboxFrames = 64
		}
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	return c
}

// model is one immutable checkpoint generation: the surrogate and its epoch
// tag. Workers hold the model pointer for the duration of a batch, so a
// reload (which swaps the server's pointer) never changes the weights under
// a running batch.
type model struct {
	sur   *melissa.Surrogate
	epoch uint32
}

// pending is one admitted request waiting for a batch: the leased wire
// message, the connection to answer on, and the request's deadline (zero =
// none). Recycled through a freelist so the steady-state admit path does
// not allocate.
type pending struct {
	c       *conn
	req     *protocol.PredictRequest
	expires time.Time
}

// Drain outcome values reported in Stats.Drain.
const (
	DrainNone   uint32 = iota // Drain has not been called
	DrainActive               // drain in progress
	DrainClean                // all admitted work was answered and flushed before close
	DrainForced               // the drain context expired; Close cut off remaining work
)

// Stats is a snapshot of the server's monotonic counters (plus the
// instantaneous queue depth and drain state).
type Stats struct {
	Requests  uint64 // predict requests received
	Responses uint64 // predict responses sent (computed + cached)
	Batches   uint64 // fused forward passes
	BatchRows uint64 // total requests served by those passes
	Hits      uint64 // cache hits
	Misses    uint64 // cache misses
	Evictions uint64 // cache capacity evictions
	Errors    uint64 // rejected requests (PredictError sent)
	Reloads   uint64 // successful hot reloads
	Epoch     uint32 // current checkpoint epoch

	Shed            uint64 // requests rejected with queue full or server draining
	DeadlineExpired uint64 // requests rejected for an elapsed deadline (admit or batch assembly)
	SlowClients     uint64 // connections torn down for not draining responses
	SendErrors      uint64 // connections torn down by a failed response write
	Queue           int    // current admit-queue depth
	QueueCap        int    // admit-queue capacity (the shed threshold)
	Drain           uint32 // DrainNone / DrainActive / DrainClean / DrainForced
}

// Server answers predict requests for one surrogate model. Create with
// NewServer, then either drive Serve with a listener or (in tests) admit
// requests directly.
type Server struct {
	cfg   Config
	model atomic.Pointer[model]
	cache *predictCache
	queue chan *pending
	free  chan *pending

	reloadMu sync.Mutex // serializes reloads; epoch advances under it
	done     chan struct{}
	closing  atomic.Bool
	draining atomic.Bool
	drain    atomic.Uint32 // DrainNone/DrainActive/DrainClean/DrainForced
	inflight atomic.Int64  // admitted requests not yet answered (or shed)
	wg       sync.WaitGroup
	ln       net.Listener
	lnMu     sync.Mutex
	connMu   sync.Mutex // guards conns; track checks closing under it
	conns    map[*conn]struct{}

	requests, responses, batches, batchRows, errors, reloads atomic.Uint64
	shed, deadlineExpired, slowClients, sendErrors           atomic.Uint64
}

// NewServer wraps a loaded surrogate in a serving instance and starts its
// batch workers (and the checkpoint watcher, if configured). The watcher
// takes the file at CheckpointPath now as the one sur was loaded from, so a
// publish that lands after NewServer returns is always picked up.
func NewServer(sur *melissa.Surrogate, cfg Config) *Server {
	fi, _ := os.Stat(cfg.CheckpointPath)
	return newServer(sur, cfg, fi)
}

// newServer is NewServer with the watcher's baseline: the checkpoint file
// as it was when sur was read from it (nil: no file).
func newServer(sur *melissa.Surrogate, cfg Config, loaded os.FileInfo) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newPredictCache(cfg.CacheEntries),
		queue: make(chan *pending, cfg.QueueSize),
		free:  make(chan *pending, cfg.QueueSize),
		done:  make(chan struct{}),
	}
	s.model.Store(&model{sur: sur, epoch: 1})
	for i := 0; i < cfg.Replicas; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.WatchInterval > 0 && cfg.CheckpointPath != "" {
		s.wg.Add(1)
		go s.watch(loaded)
	}
	return s
}

// LoadServer loads the self-describing checkpoint at cfg.CheckpointPath and
// serves it.
func LoadServer(cfg Config) (*Server, error) {
	if cfg.CheckpointPath == "" {
		return nil, errors.New("serve: no checkpoint path configured")
	}
	// Stat before reading: a publish that lands in between is then a
	// change the watcher reloads, never the baseline it compares against.
	fi, _ := os.Stat(cfg.CheckpointPath)
	sur, err := melissa.LoadSurrogateFile(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	return newServer(sur, cfg, fi), nil
}

// Epoch returns the current checkpoint epoch (1 for the initial model,
// advancing by one per successful reload).
func (s *Server) Epoch() uint32 { return s.model.Load().epoch }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	hits, misses, evictions := s.cache.counters()
	return Stats{
		Requests:  s.requests.Load(),
		Responses: s.responses.Load(),
		Batches:   s.batches.Load(),
		BatchRows: s.batchRows.Load(),
		Hits:      hits,
		Misses:    misses,
		Evictions: evictions,
		Errors:    s.errors.Load(),
		Reloads:   s.reloads.Load(),
		Epoch:     s.Epoch(),

		Shed:            s.shed.Load(),
		DeadlineExpired: s.deadlineExpired.Load(),
		SlowClients:     s.slowClients.Load(),
		SendErrors:      s.sendErrors.Load(),
		Queue:           len(s.queue),
		QueueCap:        cap(s.queue),
		Drain:           s.drain.Load(),
	}
}

// Serve accepts connections on ln until Close or Drain. It returns nil
// after either, or the accept error that stopped it. On a server that is
// already closed it closes ln and returns.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closing.Load() {
		s.lnMu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	// Serve holds its own count for as long as it accepts: the Add for an
	// accepted connection then never meets a counter that the exiting
	// workers have brought to zero under Close's Wait. Close sets closing
	// before it takes lnMu, so it either finds this count or Serve found
	// closing set.
	s.wg.Add(1)
	s.lnMu.Unlock()
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() || s.draining.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

// ListenAndServe listens on addr (TCP) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Addr returns the listener address, once Serve has one.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every open connection (unblocking their
// reader goroutines), stops the workers and watcher, and waits for all of
// them to drain. Safe to call more than once.
func (s *Server) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Closing the sockets is what unblocks handlers parked in rd.Next();
	// track() refuses new registrations once closing is set, so no handler
	// can slip in behind this sweep.
	s.connMu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return nil
}

// Drain gracefully shuts the server down: stop accepting connections, shed
// every request that arrives from now on (typed draining error), finish
// the work already admitted, flush every connection's outbox to its
// socket, then Close. It returns nil on a clean drain. If ctx expires
// first the drain is forced — Close cuts off whatever remains — and
// ctx.Err() is returned. The outcome is recorded in Stats.Drain. Only the
// first call drains; later calls return an error without waiting.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("serve: already draining")
	}
	s.drain.Store(DrainActive)
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	clean := s.awaitQuiescent(ctx)
	if clean {
		s.drain.Store(DrainClean)
	} else {
		s.drain.Store(DrainForced)
	}
	s.Close()
	if !clean {
		return ctx.Err()
	}
	return nil
}

// awaitQuiescent polls until every admitted request has been answered and
// every connection's outbox has reached its socket, or ctx expires.
func (s *Server) awaitQuiescent(ctx context.Context) bool {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 && len(s.queue) == 0 && s.flushed() {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// flushed reports whether every tracked connection's outbox is empty and
// its writer is not mid-frame.
func (s *Server) flushed() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		if c.queued.Load() > 0 {
			return false
		}
	}
	return true
}

// track registers an accepted connection for Close's teardown sweep. It
// refuses (and the caller must drop the conn) if the server is already
// closing: closing is set before Close takes connMu, so a track that wins
// the lock first is seen by Close's sweep, and one that loses sees closing.
func (s *Server) track(c *conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closing.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// Reload hot-swaps the served checkpoint: load the file at path (empty =
// the configured checkpoint path), verify it is shape-compatible with the
// running model, and publish it under the next epoch. In-flight batches
// finish on the old model; the prediction cache flushes. Returns the epoch
// now serving.
func (s *Server) Reload(path string) (uint32, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if path == "" {
		path = s.cfg.CheckpointPath
		if path == "" {
			return s.Epoch(), errors.New("serve: no checkpoint path configured")
		}
	}
	sur, err := melissa.LoadSurrogateFile(path)
	if err != nil {
		return s.Epoch(), err
	}
	old := s.model.Load()
	if sur.ParamDim() != old.sur.ParamDim() || sur.OutputDim() != old.sur.OutputDim() {
		return old.epoch, fmt.Errorf("serve: checkpoint shape %d->%d incompatible with serving model %d->%d",
			sur.ParamDim(), sur.OutputDim(), old.sur.ParamDim(), old.sur.OutputDim())
	}
	next := &model{sur: sur, epoch: old.epoch + 1}
	s.model.Store(next)
	// Flush after the swap: an in-flight batch still running on the old
	// model carries an older epoch tag, so its puts are dropped below the
	// new floor rather than repopulating the cache with stale fields.
	s.cache.flush(next.epoch)
	s.reloads.Add(1)
	return next.epoch, nil
}

// errReloadRefused answers a Reload frame that names a path outside the
// configured checkpoint's directory. The text is all the caller learns.
var errReloadRefused = errors.New("serve: reload refused: over the wire only the configured checkpoint, or a file beside it, can be named")

// confine checks a path named by a Reload frame. Any connection on the
// predict port can send one, so over the wire a reload reads only where the
// operator already pointed the server: the empty path (the configured
// checkpoint) or a file in that checkpoint's directory. Everything else is
// refused on the path's spelling alone — it is never opened, and what the
// filesystem holds there is not the caller's to learn. The Go method Reload
// takes any path; its caller is the operator's own program.
func (s *Server) confine(path string) error {
	if path == "" {
		return nil
	}
	if s.cfg.CheckpointPath == "" {
		return errReloadRefused
	}
	abs, err := filepath.Abs(path)
	ckpt, cerr := filepath.Abs(s.cfg.CheckpointPath)
	if err != nil || cerr != nil || filepath.Dir(abs) != filepath.Dir(ckpt) {
		return errReloadRefused
	}
	return nil
}

// watch polls the checkpoint file and reloads when it is not the file last
// loaded. Every atomic publish renames a new file into place, so identity
// is what changes: a surrogate of the same architecture always has the same
// size, and back-to-back publishes can share an mtime tick. Size and mtime
// still count, for a file rewritten in place.
func (s *Server) watch(last os.FileInfo) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.WatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			fi, err := os.Stat(s.cfg.CheckpointPath)
			if err != nil || last != nil && os.SameFile(fi, last) && fi.Size() == last.Size() && fi.ModTime().Equal(last.ModTime()) {
				continue
			}
			if _, err := s.Reload(""); err == nil {
				last = fi
			}
		}
	}
}

// worker drains the admit queue: it blocks for the first pending request,
// keeps the batch open until the size cap or the BatchWait deadline, then
// runs the fused forward pass on its own replica and answers every request.
// One worker per configured replica; a worker replaces its replica when it
// first picks up a reloaded model.
func (s *Server) worker() {
	defer s.wg.Done()
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var key []byte // worker-private cache key scratch
	var m *model
	var rep *melissa.Replica
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case <-s.done:
			return
		}
		batch = append(batch[:0], first)
		if cur := s.model.Load(); cur != m {
			m, rep = cur, cur.sur.NewReplica(s.cfg.MaxBatch)
		}
		s.fillBatch(&batch, timer)
		key = s.serveBatch(m, rep, batch, key)
	}
}

// fillBatch grows *batch from the queue until the size cap or the deadline.
// The non-blocking drain runs first so a backlogged queue closes batches at
// the cap without ever arming the timer.
func (s *Server) fillBatch(batch *[]*pending, timer *time.Timer) {
	cap := s.cfg.MaxBatch
	b := *batch
	defer func() { *batch = b }()
	for len(b) < cap {
		select {
		case p := <-s.queue:
			b = append(b, p)
			continue
		default:
		}
		break
	}
	if len(b) >= cap || s.cfg.BatchWait <= 0 {
		return
	}
	timer.Reset(s.cfg.BatchWait)
	for len(b) < cap {
		select {
		case p := <-s.queue:
			b = append(b, p)
		case <-timer.C:
			return
		case <-s.done:
			if !timer.Stop() {
				<-timer.C
			}
			return
		}
	}
	if !timer.Stop() {
		<-timer.C
	}
}

// serveBatch evaluates one batch on rep, a replica of m, and answers every
// request. The batch runs entirely on m's weights — reloads swap the
// server's model pointer but cannot touch a model a worker already holds.
// key is the calling worker's private cache-key scratch (never a conn's
// keyBuf, which belongs to that conn's reader goroutine); the grown slice is
// returned for reuse.
func (s *Server) serveBatch(m *model, rep *melissa.Replica, batch []*pending, key []byte) []byte {
	// Deadline sweep at batch assembly: a request whose budget elapsed
	// while it sat in the queue is rejected here, never computed, so under
	// overload GEMM time goes only to callers still waiting.
	now := time.Now()
	live := batch[:0]
	for _, p := range batch {
		if !p.expires.IsZero() && now.After(p.expires) {
			s.deadlineExpired.Add(1)
			s.errors.Add(1)
			p.c.sendError(p.req.ID, protocol.PredictErrExpired, "deadline exceeded", 0)
			s.finishPending(p)
			continue
		}
		live = append(live, p)
	}
	batch = live
	if len(batch) == 0 {
		return key
	}
	err := rep.PredictBatchRaw(len(batch),
		func(i int) ([]float32, float32) { return batch[i].req.Params, batch[i].req.T },
		func(i int, field []float32) {
			p := batch[i]
			if s.cache != nil {
				key = appendKey(key[:0], p.req.Params, p.req.T)
				s.cache.put(key, m.epoch, field)
			}
			p.c.sendResponse(p.req.ID, m.epoch, field)
			s.responses.Add(1)
		})
	if err != nil {
		// Unreachable in normal operation: admit validated every request
		// against a shape-compatible model. Reject the whole batch.
		for _, p := range batch {
			p.c.sendError(p.req.ID, protocol.PredictErrGeneric, err.Error(), 0)
			s.errors.Add(1)
		}
	}
	s.batches.Add(1)
	s.batchRows.Add(uint64(len(batch)))
	for _, p := range batch {
		s.finishPending(p)
	}
	return key
}

func (s *Server) leasePending(c *conn, req *protocol.PredictRequest, expires time.Time) *pending {
	select {
	case p := <-s.free:
		p.c, p.req, p.expires = c, req, expires
		return p
	default:
		return &pending{c: c, req: req, expires: expires}
	}
}

func (s *Server) recyclePending(p *pending) {
	protocol.RecyclePredictRequest(p.req)
	p.c, p.req, p.expires = nil, nil, time.Time{}
	select {
	case s.free <- p:
	default:
	}
}

// finishPending retires a pending that went through the admit queue:
// recycle it and release its slot in the drain gate.
func (s *Server) finishPending(p *pending) {
	s.recyclePending(p)
	s.inflight.Add(-1)
}

// retryAfterHintMs estimates when a shed client should try again: a full
// queue drains at roughly Replicas*MaxBatch requests per BatchWait.
func (s *Server) retryAfterHintMs() uint32 {
	wait := s.cfg.BatchWait
	if wait <= 0 {
		wait = time.Millisecond
	}
	rounds := 1 + len(s.queue)/(s.cfg.Replicas*s.cfg.MaxBatch)
	ms := (time.Duration(rounds) * wait).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > 60_000 {
		ms = 60_000
	}
	return uint32(ms)
}

// admit takes ownership of a leased request: answer from the cache, reject
// a malformed/expired/shed query, or queue it for a batch worker — never
// blocking, so one overloaded queue cannot stall a connection's reader.
// now is when the frame was received; a DeadlineMs budget counts from it.
// Runs on the connection's reader goroutine, so cache hits never cross a
// goroutine boundary.
func (s *Server) admit(c *conn, req *protocol.PredictRequest, now time.Time) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.shed.Add(1)
		s.errors.Add(1)
		c.sendError(req.ID, protocol.PredictErrDraining, "server draining", 0)
		protocol.RecyclePredictRequest(req)
		return
	}
	m := s.model.Load()
	if len(req.Params) != m.sur.ParamDim() {
		s.errors.Add(1)
		c.sendError(req.ID, protocol.PredictErrGeneric, "bad parameter count", 0)
		protocol.RecyclePredictRequest(req)
		return
	}
	var expires time.Time
	if req.DeadlineMs > 0 {
		expires = now.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
		if time.Now().After(expires) {
			s.deadlineExpired.Add(1)
			s.errors.Add(1)
			c.sendError(req.ID, protocol.PredictErrExpired, "deadline exceeded", 0)
			protocol.RecyclePredictRequest(req)
			return
		}
	}
	if s.cache != nil {
		c.keyBuf = appendKey(c.keyBuf[:0], req.Params, req.T)
		if field, epoch := s.cache.get(c.keyBuf, c.fieldBuf); field != nil {
			c.fieldBuf = field
			c.sendResponse(req.ID, epoch, field)
			s.responses.Add(1)
			protocol.RecyclePredictRequest(req)
			return
		}
	}
	p := s.leasePending(c, req, expires)
	select {
	case s.queue <- p:
		s.inflight.Add(1)
	default:
		// Queue full: shed now with a hint instead of stalling the reader.
		s.shed.Add(1)
		s.errors.Add(1)
		c.sendError(req.ID, protocol.PredictErrOverloaded, "server overloaded", s.retryAfterHintMs())
		s.recyclePending(p)
	}
}

// conn is one client connection. The reader goroutine decodes frames and
// admits requests; a dedicated writer goroutine owns the socket's write
// side, draining a bounded outbox of pre-encoded frames — batch workers
// enqueue and move on, never touching the socket. A client that stops
// draining responses (outbox overflow, or a frame write outliving
// WriteTimeout) has only its own connection torn down.
type conn struct {
	nc net.Conn
	s  *Server

	mu   sync.Mutex               // guards resp staging during encode
	resp protocol.PredictResponse // persistent response header: encoding
	// through a pointer keeps the per-response interface boxing off the heap

	outbox chan []byte   // encoded frames awaiting the writer
	obFree chan []byte   // encode-buffer freelist; keeps the send path alloc-free
	queued atomic.Int64  // frames enqueued but not yet on the socket (drain gate)
	dead   atomic.Bool   // set once; no further sends, socket closed
	quit   chan struct{} // reader closed: writer flushes the outbox and exits
	wdone  chan struct{} // writer exited

	keyBuf   []byte    // cache key scratch (reader goroutine only)
	fieldBuf []float32 // cache hit copy-out scratch (reader goroutine only)
}

// newConn wraps an accepted socket and starts its writer goroutine. Every
// conn must be retired with shutdown (directly or via handleConn's defers)
// or its writer leaks.
func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		nc:     nc,
		s:      s,
		outbox: make(chan []byte, s.cfg.OutboxFrames),
		obFree: make(chan []byte, s.cfg.OutboxFrames+4),
		quit:   make(chan struct{}),
		wdone:  make(chan struct{}),
	}
	s.wg.Add(1)
	go c.writer()
	return c
}

// teardown reasons for die.
type teardownReason int

const (
	reasonQuiet    teardownReason = iota // orderly close; no counter
	reasonSlow                           // outbox overflow or write deadline: client not draining
	reasonWriteErr                       // hard write error (reset, short write)
)

// die marks the connection dead exactly once and closes the socket, which
// unblocks both the reader (rd.Next) and the writer (nc.Write). Safe from
// any goroutine.
func (c *conn) die(why teardownReason) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	switch why {
	case reasonSlow:
		c.s.slowClients.Add(1)
	case reasonWriteErr:
		c.s.sendErrors.Add(1)
	}
	c.nc.Close()
}

// shutdown ends the connection from the reader's side: stop the writer —
// flushing whatever is already queued — then close the socket.
func (c *conn) shutdown() {
	close(c.quit)
	<-c.wdone
	c.die(reasonQuiet)
}

// writer drains the outbox onto the socket. On quit it flushes what is
// already queued, then exits; a write failure kills the connection but the
// writer keeps draining (and discarding) so enqueuers are never stuck.
func (c *conn) writer() {
	defer c.s.wg.Done()
	defer close(c.wdone)
	for {
		select {
		case buf := <-c.outbox:
			c.writeFrame(buf)
		case <-c.quit:
			for {
				select {
				case buf := <-c.outbox:
					c.writeFrame(buf)
				default:
					return
				}
			}
		}
	}
}

// writeFrame writes one encoded frame under the configured write deadline
// and recycles its buffer. A deadline expiry is a slow client; any other
// failure is a send error. Either way only this connection dies.
func (c *conn) writeFrame(buf []byte) {
	defer c.queued.Add(-1)
	if c.dead.Load() {
		c.recycleBuf(buf)
		return
	}
	if to := c.s.cfg.WriteTimeout; to > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(to))
	}
	n, err := c.nc.Write(buf)
	c.recycleBuf(buf)
	if err == nil && n == len(buf) {
		return
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		c.die(reasonSlow)
	} else {
		c.die(reasonWriteErr)
	}
}

// leaseBuf takes an encode buffer from the freelist (or nil, growing a new
// one on first use); recycleBuf returns it. The freelist outsizes the
// outbox so a steady-state connection circulates a fixed set of buffers.
func (c *conn) leaseBuf() []byte {
	select {
	case buf := <-c.obFree:
		return buf
	default:
		return nil
	}
}

func (c *conn) recycleBuf(buf []byte) {
	select {
	case c.obFree <- buf:
	default:
	}
}

// enqueue hands one encoded frame to the writer without ever blocking. An
// outbox at capacity means the client is not reading its responses: the
// connection is torn down as slow rather than letting it wedge a worker.
func (c *conn) enqueue(buf []byte) {
	c.queued.Add(1)
	select {
	case c.outbox <- buf:
	default:
		c.queued.Add(-1)
		c.recycleBuf(buf)
		c.die(reasonSlow)
	}
}

// send encodes and enqueues one frame; drops it if the connection is
// already dead.
func (c *conn) send(msg protocol.Message) {
	if c.dead.Load() {
		return
	}
	buf := protocol.AppendEncode(c.leaseBuf()[:0], msg)
	c.enqueue(buf)
}

// sendResponse stages a PredictResponse without copying the field: the
// frame is encoded straight from the caller's buffer into a leased encode
// buffer (the persistent resp header is guarded by mu — workers and the
// reader goroutine all answer on it).
func (c *conn) sendResponse(id uint64, epoch uint32, field []float32) {
	if c.dead.Load() {
		return
	}
	c.mu.Lock()
	c.resp.ID, c.resp.Epoch, c.resp.Field = id, epoch, field
	buf := protocol.AppendEncode(c.leaseBuf()[:0], &c.resp)
	c.resp.Field = nil // don't pin the caller's buffer past the call
	c.mu.Unlock()
	c.enqueue(buf)
}

func (c *conn) sendError(id uint64, code uint32, msg string, retryAfterMs uint32) {
	c.send(protocol.PredictError{ID: id, Msg: msg, Code: code, RetryAfterMs: retryAfterMs})
}

func b32(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// handleConn reads frames until the client hangs up, says Goodbye, or the
// server closes the socket during Close.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	c := s.newConn(nc)
	if !s.track(c) {
		c.shutdown()
		return
	}
	defer s.untrack(c)
	defer c.shutdown()
	rd := protocol.NewReader(bufio.NewReaderSize(nc, 1<<15))
	for {
		select {
		case <-s.done:
			return
		default:
		}
		msg, err := rd.Next()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *protocol.PredictRequest:
			s.admit(c, m, time.Now())
		case protocol.ServeInfoRequest:
			mod := s.model.Load()
			c.send(protocol.ServeInfo{
				Problem:     mod.sur.Meta().Problem,
				ParamDim:    uint32(mod.sur.ParamDim()),
				OutputDim:   uint32(mod.sur.OutputDim()),
				Epoch:       mod.epoch,
				Queue:       uint32(len(s.queue)),
				QueueCap:    uint32(cap(s.queue)),
				Shed:        s.shed.Load(),
				Expired:     s.deadlineExpired.Load(),
				SlowClients: s.slowClients.Load(),
				Draining:    b32(s.draining.Load()),
			})
		case protocol.Reload:
			epoch, err := s.Epoch(), s.confine(m.Path)
			if err == nil {
				epoch, err = s.Reload(m.Path)
			}
			res := protocol.ReloadResult{Epoch: epoch}
			if err != nil {
				res.Msg = err.Error()
			}
			c.send(res)
		case protocol.Goodbye:
			return
		default:
			// Unexpected but decodable frame (e.g. a training client
			// connected here by mistake): drop it, keep the connection.
			if ts, ok := msg.(*protocol.TimeStep); ok {
				protocol.RecycleTimeStep(ts)
			}
		}
	}
}
