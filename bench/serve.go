package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"melissa"
	"melissa/internal/nn"
	"melissa/internal/protocol"
	"melissa/internal/serve"
)

// serveSpec is one serving workload: melissa-serve's default configuration
// under a closed-loop load, because the callers are simulation and
// optimisation codes that wait for each answer.
type serveSpec struct {
	conns    int     // load connections, one goroutine each
	window   int     // requests each connection keeps in flight
	hotShare float64 // share of queries drawn from the hot set
	hotKeys  int
	grid     int
	hidden   []int
}

// serveDefaults mirrors cmd/melissa-serve's flag defaults.
func serveDefaults(checkpoint string) serve.Config {
	return serve.Config{
		CheckpointPath: checkpoint,
		Replicas:       2,
		MaxBatch:       32,
		BatchWait:      500 * time.Microsecond,
		CacheEntries:   4096,
	}
}

func (sp serveSpec) config(seed uint64) melissa.Config {
	cfg := melissa.DefaultConfig()
	cfg.Problem = melissa.Heat()
	cfg.GridN = sp.grid
	cfg.StepsPerSim = 100
	cfg.Hidden = sp.hidden
	cfg.Seed = seed
	return cfg
}

type query struct {
	params [5]float32
	t      float32
}

func drawQuery(rng *rand.Rand) query {
	var q query
	for i := range q.params {
		q.params[i] = float32(100 + 400*rng.Float64())
	}
	q.t = float32(0.01 + 0.99*rng.Float64())
	return q
}

// answer is one served response kept for the bit-identity check.
type answer struct {
	q     query
	field []float32
}

// loadConn is one closed-loop load connection: it keeps window requests in
// flight on its own pipelined client over protocol frames, sending the next
// request the moment a response has been decoded.
type loadConn struct {
	nc     net.Conn
	rd     *protocol.Reader
	rng    *rand.Rand
	hot    []query
	sp     serveSpec
	enc    []byte
	req    protocol.PredictRequest
	sentAt []int64 // per slot
	asked  []query // per slot
	seq    uint64

	sent, failed int
	recvNs       []int64   // when each measured response was decoded
	latUs        []float64 // ... and how long after its request was sent
	keep         []answer
	err          error
}

func (c *loadConn) send(slot int) error {
	q := drawQuery(c.rng)
	if c.sp.hotShare > 0 && c.rng.Float64() < c.sp.hotShare {
		q = c.hot[c.rng.IntN(len(c.hot))]
	}
	c.asked[slot] = q
	c.seq++
	c.req.ID = c.seq*uint64(c.sp.window) + uint64(slot)
	c.req.T = q.t
	c.req.Params = c.asked[slot].params[:]
	c.sentAt[slot] = nowNs()
	c.enc = protocol.AppendEncode(c.enc[:0], &c.req)
	c.sent++
	_, err := c.nc.Write(c.enc)
	return err
}

// run drives the connection until stop (harness clock); only responses
// received in [from, stop) are measured. It returns once every request it
// sent has been answered.
func (c *loadConn) run(from, stop int64, tr *tracer, parent int32) {
	inflight := 0
	for slot := 0; slot < c.sp.window; slot++ {
		if c.err = c.send(slot); c.err != nil {
			return
		}
		inflight++
	}
	for inflight > 0 {
		msg, err := c.rd.Next()
		if err != nil {
			c.err = fmt.Errorf("load connection: %w", err)
			return
		}
		now := nowNs()
		var slot int
		switch m := msg.(type) {
		case *protocol.PredictResponse:
			slot = int(m.ID % uint64(c.sp.window))
			if now >= from && now < stop {
				c.recvNs = append(c.recvNs, now)
				c.latUs = append(c.latUs, float64(now-c.sentAt[slot])/1e3)
				tr.add("serve.request", parent, c.sentAt[slot], now)
				if len(c.latUs)%100 == 0 { // the sampled 1 % checked bit for bit afterwards
					c.keep = append(c.keep, answer{q: c.asked[slot], field: append([]float32(nil), m.Field...)})
				}
			}
			protocol.RecyclePredictResponse(m)
		case protocol.PredictError:
			slot = int(m.ID % uint64(c.sp.window))
			c.failed++
		default:
			c.err = fmt.Errorf("load connection: unexpected %T", msg)
			return
		}
		inflight--
		if now < stop {
			if c.err = c.send(slot); c.err != nil {
				return
			}
			inflight++
		}
	}
}

// serveRig is a running server with its load connections dialled.
type serveRig struct {
	srv   *serve.Server
	done  chan error
	conns []*loadConn
}

func (r *serveRig) close() error {
	for _, c := range r.conns {
		c.nc.Close()
	}
	r.srv.Close()
	return <-r.done
}

// setUp is what a deployment pays before the first request: load the
// checkpoint, start the workers and the listener, dial, and ask each
// connection what model it reached. The info exchange also guarantees the
// server has accepted every connection before anything closes it:
// serve.Server.Close racing an Accept panics in its WaitGroup.
func (sp serveSpec) setUp(checkpoint string, seed uint64, hot []query) (*serveRig, error) {
	srv, err := serve.LoadServer(serveDefaults(checkpoint))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &serveRig{srv: srv, done: make(chan error, 1)}
	go func() { rig.done <- srv.Serve(ln) }()
	for i := 0; i < sp.conns; i++ {
		nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			rig.close()
			return nil, err
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		rd := protocol.NewReader(bufio.NewReaderSize(nc, 1<<15))
		_, err = nc.Write(protocol.Encode(protocol.ServeInfoRequest{}))
		if err == nil {
			var msg protocol.Message
			if msg, err = rd.Next(); err == nil {
				if _, ok := msg.(protocol.ServeInfo); !ok {
					err = fmt.Errorf("serve set-up: unexpected %T in answer to the info request", msg)
				}
			}
		}
		if err != nil {
			nc.Close()
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, &loadConn{
			nc:     nc,
			rd:     rd,
			rng:    rand.New(rand.NewPCG(seed, uint64(i)+1)),
			hot:    hot,
			sp:     sp,
			sentAt: make([]int64, sp.window),
			asked:  make([]query, sp.window),
		})
	}
	return rig, nil
}

// servePhase is one measured load phase against a fresh server. The
// measured stretch is cut into windows of about a second, and each
// end-to-end figure is the median over windows — one descheduled second
// moves one window, not the result.
type servePhase struct {
	setupS    float64
	seconds   float64
	answered  int
	qps       float64 // median window
	p50Us     float64 // median of the windows' medians
	tailUs    float64 // median of the windows' tails (tailPercentile)
	cpuPerKop float64 // median window
	cpuS      float64 // whole measured stretch
	stats     serve.Stats
	sent      int
	failed    int
	notes     []string
}

// setUps is how many times a phase sets the server up: one set-up is a few
// milliseconds, so a single timing would mostly measure the scheduler.
const setUps = 31

// runServePhase sets the server up (several times, keeping the median
// set-up time and the last rig), warms it, measures for seconds, drains,
// and checks a sampled 1 % of the answers against a local replica.
func runServePhase(sp serveSpec, checkpoint string, local *melissa.Surrogate, seed uint64, seconds float64, tr *tracer) (servePhase, error) {
	var ph servePhase
	hotRng := rand.New(rand.NewPCG(seed, 0))
	hot := make([]query, max(sp.hotKeys, 1))
	for i := range hot {
		hot[i] = drawQuery(hotRng)
	}

	// Every set-up but the first runs in memory the previous one left behind.
	// With the collector's pacing on, the background scavenger hands a varying
	// part of that memory back to the OS between set-ups, and a set-up that
	// has to fault its 4 MB in again takes 4 ms instead of 2.7 (more when the
	// host has to back the pages too): the median then jumps between the two
	// with the mix. So pacing is off for the loop and the garbage is collected
	// by hand between timings; the timed part is the set-up's own computing,
	// allocating and system calls.
	var rig *serveRig
	var setups []float64
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < setUps; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return ph, err
			}
		}
		runtime.GC()
		t0 := nowNs()
		var err error
		if rig, err = sp.setUp(checkpoint, seed, hot); err != nil {
			return ph, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	debug.SetGCPercent(gcPercent)
	ph.setupS = median(setups)

	warm := min(0.5, seconds/10)
	start := nowNs()
	from := start + int64(warm*1e9)
	stop := from + int64(seconds*1e9)
	tr.nextRun()
	root := tr.add("serve.load", -1, from, stop)
	var wg sync.WaitGroup
	for _, c := range rig.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(from, stop, tr, root)
		}()
	}
	windows := max(1, int(seconds))
	edge := func(w int) int64 { return from + (stop-from)*int64(w)/int64(windows) }
	time.Sleep(time.Duration(from - nowNs()))
	st0 := rig.srv.Stats()
	cpuAt := make([]float64, windows+1)
	cpuAt[0] = cpuSeconds()
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Duration(edge(w) - nowNs()))
		cpuAt[w] = cpuSeconds()
	}
	st1 := rig.srv.Stats()
	wg.Wait()
	total := rig.srv.Stats()
	if err := rig.close(); err != nil {
		return ph, err
	}

	ph.seconds = seconds
	ph.cpuS = cpuAt[windows] - cpuAt[0]
	ph.stats = serve.Stats{
		Batches:   st1.Batches - st0.Batches,
		BatchRows: st1.BatchRows - st0.BatchRows,
		Hits:      st1.Hits - st0.Hits,
		Misses:    st1.Misses - st0.Misses,
		// Overload counters must be zero over the whole run, warm-up included.
		Shed:            total.Shed,
		DeadlineExpired: total.DeadlineExpired,
		SlowClients:     total.SlowClients,
	}
	var keep []answer
	perWindow := make([][]float64, windows)
	for _, c := range rig.conns {
		if c.err != nil {
			return ph, c.err
		}
		ph.sent += c.sent
		ph.failed += c.failed
		ph.answered += len(c.latUs)
		keep = append(keep, c.keep...)
		w := 0
		for i, at := range c.recvNs {
			for w < windows-1 && at >= edge(w+1) {
				w++
			}
			perWindow[w] = append(perWindow[w], c.latUs[i])
		}
	}
	var qps, p50, tail, cpuPerKop []float64
	for w, lat := range perWindow {
		if len(lat) == 0 {
			continue
		}
		qps = append(qps, float64(len(lat))/(float64(edge(w+1)-edge(w))/1e9))
		p50 = append(p50, median(lat))
		_, t := tailPercentile(lat)
		tail = append(tail, t)
		cpuPerKop = append(cpuPerKop, (cpuAt[w+1]-cpuAt[w])/(float64(len(lat))/1000))
	}
	ph.qps, ph.p50Us, ph.tailUs, ph.cpuPerKop = median(qps), median(p50), median(tail), median(cpuPerKop)
	if n := total.Shed + total.DeadlineExpired + total.SlowClients; n != 0 {
		ph.notes = append(ph.notes, fmt.Sprintf("serve.shed %d + deadline_expired %d + slow_clients %d, want 0", total.Shed, total.DeadlineExpired, total.SlowClients))
		ph.failed += int(n)
	}
	if ph.answered == 0 {
		ph.notes = append(ph.notes, "no request answered inside the measured window")
		ph.failed++
	}

	// Bit-identity: the server's answers against a local replica at the
	// same MaxBatch, which pins the GEMM shape and so the rounding.
	maxBatch := serveDefaults("").MaxBatch
	replica := local.NewReplica(maxBatch)
	mismatched := 0
	for lo := 0; lo < len(keep); lo += maxBatch {
		chunk := keep[lo:min(lo+maxBatch, len(keep))]
		err := replica.PredictBatchRaw(len(chunk),
			func(i int) ([]float32, float32) { return chunk[i].q.params[:], chunk[i].q.t },
			func(i int, field []float32) {
				for j, v := range field {
					if math.Float32bits(v) != math.Float32bits(chunk[i].field[j]) {
						mismatched++
						return
					}
				}
			})
		if err != nil {
			return ph, err
		}
	}
	if mismatched != 0 {
		ph.notes = append(ph.notes, fmt.Sprintf("%d of %d sampled answers differ from a local replica", mismatched, len(keep)))
		ph.failed += mismatched
	}
	return ph, nil
}

// runServe measures one serving workload. The end-to-end numbers come from
// an untraced phase; with a tracer, a second phase records a span per
// request and the serve-side layers are then timed one by one.
func runServe(name string, sp serveSpec, ro runOptions) (*report, error) {
	rep := newReport(name)
	cfg := sp.config(ro.seed)
	norm := cfg.Problem.Normalizer(cfg)
	trained := nn.ArchitectureMLP(norm.InputDim(), sp.hidden, norm.OutputDim(), ro.seed)
	sur, err := melissa.SurrogateFromNetwork(trained, cfg)
	if err != nil {
		return nil, err
	}
	checkpoint := filepath.Join(ro.outDir, "serve-"+name+".mlsg")
	if err := melissa.PublishSurrogate(sur, checkpoint); err != nil {
		return nil, err
	}
	local, err := melissa.LoadSurrogateFile(checkpoint)
	if err != nil {
		return nil, err
	}

	seconds := ro.seconds
	if ro.tracer != nil {
		seconds /= 3
	}
	ph, err := runServePhase(sp, checkpoint, local, ro.seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Notes = ph.sent, ph.failed, ph.notes
	rep.EndToEnd["ops_per_s"] = ph.qps
	rep.EndToEnd["peak_rss_mb"] = peakRSSMB()
	rep.EndToEnd["setup_s"] = ph.setupS
	rep.LatencySamples = ph.answered
	rep.Reps = max(1, int(seconds))

	l := rep.Layers
	l["serve.latency_p50_us"] = ph.p50Us
	l["serve.latency_p99_us"] = ph.tailUs
	l["harness.cpu_s_per_kop"] = ph.cpuPerKop
	l["harness.cpu_cores_used"] = ph.cpuS / ph.seconds
	if ph.stats.Batches > 0 {
		l["serve.mean_batch_rows"] = float64(ph.stats.BatchRows) / float64(ph.stats.Batches)
	}
	l["serve.cache_hit_ratio"] = float64(ph.stats.Hits) / float64(max(ph.stats.Hits+ph.stats.Misses, 1))
	l["serve.shed"] = float64(ph.stats.Shed)
	l["serve.deadline_expired"] = float64(ph.stats.DeadlineExpired)
	l["serve.slow_clients"] = float64(ph.stats.SlowClients)
	if ro.tracer == nil {
		return rep, nil
	}

	traced, err := runServePhase(sp, checkpoint, local, ro.seed, seconds, ro.tracer)
	if err != nil {
		return nil, err
	}
	rep.Attempted += traced.sent
	rep.Failed += traced.failed
	rep.Notes = append(rep.Notes, traced.notes...)
	l["harness.trace_overhead_share"] = 1 - traced.qps/ph.qps
	if err := serveLayers(sp, checkpoint, local, ro, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveLayers times the serve-side layers one call at a time and derives
// the residual: what is left of the median latency after the forward pass,
// the codec and the loopback floor — queueing, batch wait and scheduling.
func serveLayers(sp serveSpec, checkpoint string, local *melissa.Surrogate, ro runOptions, rep *report) error {
	st := newStage(ro.tracer)
	ro.tracer.nextRun()
	st.parent = ro.tracer.add("serve.layers", -1, nowNs(), nowNs())
	defer func() { ro.tracer.setEnd(st.parent, nowNs()) }()

	var err error
	for i := 0; i < 5 && err == nil; i++ {
		st.time("melissa.load_surrogate", 1, func() { _, err = melissa.LoadSurrogateFile(checkpoint) })
	}
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewPCG(ro.seed, 0x1a7e5))
	maxBatch := serveDefaults("").MaxBatch
	queries := make([]query, maxBatch)
	for i := range queries {
		queries[i] = drawQuery(rng)
	}
	ask := func(i int) ([]float32, float32) { return queries[i].params[:], queries[i].t }
	field := make([]float32, local.OutputDim())
	keepField := func(_ int, f []float32) { copy(field, f) }
	one, full := local.NewReplica(1), local.NewReplica(maxBatch)
	for i := 0; i < 300 && err == nil; i++ {
		st.time("replica.forward_1row", 1, func() { err = one.PredictBatchRaw(1, ask, keepField) })
	}
	for i := 0; i < 150 && err == nil; i++ {
		st.time("replica.forward_maxbatch", 1, func() { err = full.PredictBatchRaw(maxBatch, ask, keepField) })
	}
	if err != nil {
		return err
	}

	// One exchange's codec work: the request and the response, each
	// encoded once and decoded once.
	req := protocol.PredictRequest{ID: 1, T: queries[0].t, Params: queries[0].params[:]}
	resp := protocol.PredictResponse{ID: 1, Epoch: 1, Field: field}
	var reqFrame, respFrame []byte
	const codecIters = 2000
	for i := 0; i < codecIters; i++ {
		st.time("protocol.predict_encode", 1, func() {
			reqFrame = protocol.AppendEncode(reqFrame[:0], &req)
			respFrame = protocol.AppendEncode(respFrame[:0], &resp)
		})
	}
	both := append(append([]byte(nil), reqFrame...), respFrame...)
	mem := bytes.NewReader(nil)
	dec := protocol.NewReader(mem)
	for i := 0; i < codecIters && err == nil; i++ {
		st.time("protocol.predict_decode", 1, func() {
			mem.Reset(both)
			var m protocol.Message
			if m, err = dec.Next(); err != nil {
				return
			}
			protocol.RecyclePredictRequest(m.(*protocol.PredictRequest))
			if m, err = dec.Next(); err != nil {
				return
			}
			protocol.RecyclePredictResponse(m.(*protocol.PredictResponse))
		})
	}
	if err != nil {
		return err
	}

	if err := loopbackEcho(st, len(reqFrame), len(respFrame), 2000); err != nil {
		return err
	}

	l := rep.Layers
	l["melissa.load_surrogate_ms"] = st.perUnitUs("melissa.load_surrogate") / 1e3
	l["replica.forward_us_1row"] = st.perUnitUs("replica.forward_1row")
	l["replica.forward_us_maxbatch"] = st.perUnitUs("replica.forward_maxbatch")
	l["protocol.predict_encode_us"] = st.perUnitUs("protocol.predict_encode")
	l["protocol.predict_decode_us"] = st.perUnitUs("protocol.predict_decode")
	l["protocol.response_bytes"] = float64(len(respFrame))
	l["transport.loopback_rtt_us"] = st.perUnitUs("transport.loopback_rtt")
	l["serve.residual_us_p50"] = l["serve.latency_p50_us"] - l["replica.forward_us_maxbatch"] -
		l["protocol.predict_encode_us"] - l["protocol.predict_decode_us"] - l["transport.loopback_rtt_us"]
	return nil
}

// loopbackEcho measures the plain-TCP floor of one exchange: reqBytes out,
// respBytes back, no protocol and no server behind it.
func loopbackEcho(st *stage, reqBytes, respBytes, iters int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer nc.Close()
		nc.(*net.TCPConn).SetNoDelay(true)
		in, out := make([]byte, reqBytes), make([]byte, respBytes)
		for {
			if _, err := io.ReadFull(nc, in); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoErr <- err
				return
			}
			if _, err := nc.Write(out); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		return err
	}
	nc.(*net.TCPConn).SetNoDelay(true)
	out, in := make([]byte, reqBytes), make([]byte, respBytes)
	for i := 0; i < iters && err == nil; i++ {
		st.time("transport.loopback_rtt", 1, func() {
			if _, err = nc.Write(out); err == nil {
				_, err = io.ReadFull(nc, in)
			}
		})
	}
	nc.Close()
	if eerr := <-echoErr; err == nil {
		err = eerr
	}
	return err
}
