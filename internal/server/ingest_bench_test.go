package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync"
	"testing"

	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/protocol"
	"melissa/internal/testwait"
	"melissa/internal/transport"
)

// ingestHarness is a one-rank server core without listeners or trainer:
// just the sharded aggregator state and an arena-backed buffer, so the
// ingestion hot path can be driven directly.
func ingestHarness(p buffer.Policy, inDim, outDim int) (*Server, *buffer.Blocking) {
	bb := buffer.NewBlockingArena(p, inDim, outDim)
	s := &Server{
		cfg:        Config{ExpectedClients: 1},
		worldRanks: 1,
		bufs:       []*buffer.Blocking{bb},
		inDim:      inDim,
		outDim:     outDim,
	}
	s.aggs = []*rankAgg{s.newRankAgg(0)}
	return s, bb
}

// TestIngestZeroAllocSteadyState is the acceptance gate for the zero-copy
// pipeline: decoding a TimeStep frame, deduplicating it against the rank's
// bitset log, storing it into the arena-backed buffer, recycling the
// lease, and extracting it for a batch must perform zero steady-state heap
// allocations.
func TestIngestZeroAllocSteadyState(t *testing.T) {
	const inDim, outDim = 7, 256
	const warmup, measured = 256, 1000
	const total = warmup + 2*measured + 16

	s, bb := ingestHarness(buffer.NewFIFO(512), inDim, outDim)
	a := s.aggs[0]
	st := a.sim(1)
	st.Steps = total
	st.presizeSeen(total) // what a Hello does on the live server

	// Pre-encode the whole stream of distinct steps.
	var stream bytes.Buffer
	msg := protocol.TimeStep{SimID: 1, Input: make([]float32, inDim), Field: make([]float32, outDim)}
	for step := int32(1); step <= total; step++ {
		msg.Step = step
		stream.Write(protocol.Encode(msg))
	}
	rd := protocol.NewReader(bytes.NewReader(stream.Bytes()))
	discard := func(int, buffer.Sample) {}
	iter := func() {
		m, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		s.ingestTimeStep(0, m.(*protocol.TimeStep))
		bb.GetBatchEach(1, discard)
	}
	for i := 0; i < warmup; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(measured, iter); avg != 0 {
		t.Fatalf("server-side ingestion allocates %.3f allocs/op, want 0", avg)
	}
}

// TestIngestDedupBitset pins the bitset message log against the replay
// scenario the map-based log used to cover: duplicates are dropped and
// recycled, fresh steps stored.
func TestIngestDedupBitset(t *testing.T) {
	const inDim, outDim = 2, 3
	s, bb := ingestHarness(buffer.NewFIFO(0), inDim, outDim)
	for _, step := range []int32{1, 2, 3, 2, 1, 4, 4, 100000} {
		s.ingestTimeStep(0, leaseFrame(7, step, inDim, outDim, 0))
	}
	if got := bb.Len(); got != 5 {
		t.Fatalf("stored %d samples, want 5 (duplicates must be dropped)", got)
	}
	if got := s.receivedOnRank(0); got != 5 {
		t.Fatalf("received counter %d, want 5", got)
	}
}

// TestIngestRejectsCorruptSteps pins the bitset-growth bound: a frame
// whose Step lies outside the Hello-declared trajectory (or past the
// untracked-sim cap) must be dropped without growing the dedup log — the
// wire Step is attacker-controlled and must not size an allocation.
func TestIngestRejectsCorruptSteps(t *testing.T) {
	st := &SimState{}
	st.Steps = 100
	st.presizeSeen(100)
	words := len(st.Seen)
	if st.markSeen(101) || st.markSeen(1<<30) {
		t.Fatal("steps beyond the declared trajectory must be rejected")
	}
	if len(st.Seen) != words {
		t.Fatalf("rejected step grew the bitset to %d words", len(st.Seen))
	}
	if !st.markSeen(100) || !st.markSeen(1) {
		t.Fatal("in-range steps must be accepted")
	}

	// No Hello yet: grow on demand, but only within the tight provisional
	// window — a fresh SimID must not be able to pin a full-size bitset
	// with one frame.
	unknown := &SimState{}
	if !unknown.markSeen(100000) {
		t.Fatal("untracked sim must accept plausible steps")
	}
	if unknown.markSeen(maxUntrackedStep + 1) {
		t.Fatal("untracked sim must reject steps past the provisional cap")
	}

	// A lying Hello.Steps must not size the presized bitset either: the
	// declaration is clamped, so the log stays bounded and reception
	// accounting (which uses the same clamped value) can still complete.
	lying := &SimState{Steps: clampSteps(1 << 30)}
	lying.presizeSeen(lying.Steps)
	if maxWords := maxTrackedStep>>6 + 1; len(lying.Seen) > maxWords {
		t.Fatalf("presized bitset has %d words, cap is %d", len(lying.Seen), maxWords)
	}
	if !lying.markSeen(maxTrackedStep) {
		t.Fatal("steps within the cap must still be accepted")
	}
}

// leaseFrame leases a TimeStep of the given identity whose Input and Field
// hold inLen and fieldLen copies of v.
func leaseFrame(sim, step int32, inLen, fieldLen int, v float32) *protocol.TimeStep {
	ts := protocol.LeaseTimeStep()
	ts.SimID, ts.Step = sim, step
	ts.Input, ts.Field = ts.Input[:0], ts.Field[:0]
	for range inLen {
		ts.Input = append(ts.Input, v)
	}
	for range fieldLen {
		ts.Field = append(ts.Field, v)
	}
	return ts
}

// TestIngestDropsMisSizedFrame: both payload lengths come off the wire. A
// frame whose Input or Field is not exactly the model's width is dropped
// like a corrupt step — never marked seen, never stored — so a long field
// cannot crash the trainer and a short one cannot train on the stale tail
// of a recycled row. The correct frame for the same step is then accepted,
// and the trainer drains it.
func TestIngestDropsMisSizedFrame(t *testing.T) {
	srv, err := New(testConfig(1, 1, buffer.FIFOKind))
	if err != nil {
		t.Fatal(err)
	}
	// What Hello and Goodbye leave: sim 0 is one step long and complete, so
	// its one frame ends reception.
	a := srv.aggs[0]
	st := a.sim(0)
	st.ClientID, st.Steps, st.Goodbye, a.goodbyes = 0, 1, true, 1
	in, out := srv.cfg.Trainer.Normalizer.InputDim(), srv.cfg.Trainer.Normalizer.OutputDim()
	for _, bad := range [][2]int{{in - 1, out}, {in, out + 7}, {in, out - 1}} {
		srv.ingestTimeStep(0, leaseFrame(0, 1, bad[0], bad[1], 300))
		if srv.receivedOnRank(0) != 0 || srv.bufs[0].Len() != 0 || !st.unseen(1) {
			t.Fatalf("a %d/%d frame was taken in by a %d/%d model", bad[0], bad[1], in, out)
		}
	}
	srv.ingestTimeStep(0, leaseFrame(0, 1, in, out, 300))
	if srv.receivedOnRank(0) != 1 || srv.bufs[0].Len() != 1 {
		t.Fatal("the correct frame was refused after the mis-sized ones")
	}
	if err := runServer(t, srv, context.Background())(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Samples(); got != 1 {
		t.Fatalf("trained %d samples, want the 1 received", got)
	}
}

// FuzzIngestFrame sends one frame of arbitrary identity, payload lengths and
// values through ingestTimeStep, then drains the buffer through one trainer.
// Nothing may panic, only an exact-width frame may count as received, and
// the trainer trains exactly what was received.
func FuzzIngestFrame(f *testing.F) {
	tcfg := testConfig(1, 1, buffer.FIFOKind).Trainer
	tcfg.Ranks = 1
	in, out := tcfg.Normalizer.InputDim(), tcfg.Normalizer.OutputDim()
	f.Add(int32(0), int32(1), uint16(in), uint16(out), float32(300))
	f.Add(int32(2), int32(3), uint16(in), uint16(out+7), float32(1))
	f.Add(int32(2), int32(3), uint16(in), uint16(out-1), float32(1))
	f.Add(int32(5), int32(4), uint16(in-1), uint16(out), float32(-2))
	f.Add(int32(-1), int32(-5), uint16(0), uint16(0), float32(math.NaN()))
	f.Fuzz(func(t *testing.T, sim, step int32, inLen, fieldLen uint16, v float32) {
		s, bb := ingestHarness(buffer.NewFIFO(0), in, out)
		s.ingestTimeStep(0, leaseFrame(sim, step, int(inLen), int(fieldLen), v))
		received := s.receivedOnRank(0)
		if received != 0 && (int(inLen) != in || int(fieldLen) != out) {
			t.Fatalf("a %d/%d frame counts as received by a %d/%d model", inLen, fieldLen, in, out)
		}
		bb.EndReception()
		tr, err := core.NewTrainer(tcfg, []*buffer.Blocking{bb})
		if err != nil {
			t.Fatal(err)
		}
		if err := testwait.Run(t, "Trainer.Run to drain", func() error { return tr.Run(context.Background()) }); err != nil {
			t.Fatal(err)
		}
		if got := tr.Metrics().Samples(); got != received {
			t.Fatalf("trained %d samples, received %d", got, received)
		}
	})
}

// --- End-to-end ingestion benchmark: synthetic clients over loopback TCP.
//
// BenchmarkIngestPooled measures the production path end to end: clients
// frame with AppendEncode into pre-built chunks and write few syscalls →
// transport.RankListener (pooled protocol.Reader, leased TimeSteps) →
// sharded bitset dedup → arena PutCopy → GetBatchEach batch extraction.
// BenchmarkIngestLegacy reproduces the pre-PR pipeline on the same wire
// format, faithfully re-implemented below from the seed code: per-float
// encode with two allocations per frame, one unbuffered write syscall per
// message, allocating per-float decode, map[Key]bool dedup under one
// mutex, heap samples in a mutex-and-cond slice queue (legacyQueue). The
// ratio of their samples/s is the zero-copy ingest's speedup (see History
// in bench/README.md).

// legacyEncodeTimeStep reproduces the seed protocol.Encode for TimeStep:
// a payload buffer built with per-float appends, then copied into a second
// frame allocation.
func legacyEncodeTimeStep(m protocol.TimeStep) []byte {
	appendU32 := func(buf []byte, v uint32) []byte {
		return binary.LittleEndian.AppendUint32(buf, v)
	}
	appendF32s := func(buf []byte, vals []float32) []byte {
		buf = appendU32(buf, uint32(len(vals)))
		for _, v := range vals {
			buf = appendU32(buf, math.Float32bits(v))
		}
		return buf
	}
	payload := make([]byte, 0, 64)
	payload = appendU32(payload, uint32(m.SimID))
	payload = appendU32(payload, uint32(m.Step))
	payload = appendF32s(payload, m.Input)
	payload = appendF32s(payload, m.Field)
	frame := make([]byte, 0, len(payload)+5)
	frame = appendU32(frame, uint32(len(payload)+1))
	frame = append(frame, byte(protocol.TypeTimeStep))
	frame = append(frame, payload...)
	return frame
}

// legacyReadTimeStep reproduces the seed protocol.Read: allocate the frame
// body, then decode each float vector element by element into fresh
// slices.
func legacyReadTimeStep(r io.Reader) (protocol.TimeStep, error) {
	var ts protocol.TimeStep
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return ts, err
	}
	size := binary.LittleEndian.Uint32(lenBuf[:])
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return ts, err
	}
	buf := body[1:]
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		return v
	}
	f32s := func() []float32 {
		n := u32()
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		buf = buf[4*n:]
		return out
	}
	ts.SimID = int32(u32())
	ts.Step = int32(u32())
	ts.Input = f32s()
	ts.Field = f32s()
	return ts, nil
}

const (
	benchInDim   = 7
	benchOutDim  = 1024 // 32×32 heat field
	benchClients = 4
	benchCap     = 6000 // paper's buffer capacity
	benchBatch   = 10
)

// benchFrame pre-encodes a TimeStep frame template for sim and returns it
// with the byte offset of the Step field.
func benchFrame(sim int32) (frame []byte, stepOff int) {
	ts := protocol.TimeStep{
		SimID: sim,
		Step:  0,
		Input: make([]float32, benchInDim),
		Field: make([]float32, benchOutDim),
	}
	for i := range ts.Field {
		ts.Field[i] = float32(i)
	}
	// Frame layout: len u32 | type u8 | simID u32 | step u32 | …
	return protocol.Encode(ts), 9
}

// runBenchClients streams stepsPerClient unique steps per client over its
// own TCP connection the production way: AppendEncode into a recycled
// chunk buffer, one flush point (write syscall) per 32 frames.
func runBenchClients(b *testing.B, addr string, stepsPerClient int, start <-chan struct{}, wg *sync.WaitGroup) {
	b.Helper()
	for c := 0; c < benchClients; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		// Announce the trajectory so the pooled server presizes bitsets.
		hello := protocol.Encode(protocol.Hello{ClientID: int32(c), SimID: int32(c), Steps: int32(stepsPerClient)})
		if _, err := conn.Write(hello); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			ts := protocol.TimeStep{
				SimID: int32(c),
				Input: make([]float32, benchInDim),
				Field: make([]float32, benchOutDim),
			}
			for i := range ts.Field {
				ts.Field[i] = float32(i)
			}
			msg := protocol.Message(&ts) // box once
			const chunkFrames = 32
			frame, _ := benchFrame(int32(c))
			chunk := make([]byte, 0, chunkFrames*len(frame))
			<-start
			for step := 1; step <= stepsPerClient; step++ {
				ts.Step = int32(step)
				chunk = protocol.AppendEncode(chunk, msg)
				if len(chunk)+len(frame) > cap(chunk) || step == stepsPerClient {
					if _, err := conn.Write(chunk); err != nil {
						return // benchmark shut the server down early
					}
					chunk = chunk[:0]
				}
			}
		}(c, conn)
	}
}

// runLegacyBenchClients streams the same trajectories the pre-PR way: a
// fresh two-allocation per-float encode and one unbuffered write syscall
// per message.
func runLegacyBenchClients(b *testing.B, addr string, stepsPerClient int, start <-chan struct{}, wg *sync.WaitGroup) {
	b.Helper()
	for c := 0; c < benchClients; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			ts := protocol.TimeStep{
				SimID: int32(c),
				Input: make([]float32, benchInDim),
				Field: make([]float32, benchOutDim),
			}
			for i := range ts.Field {
				ts.Field[i] = float32(i)
			}
			<-start
			for step := 1; step <= stepsPerClient; step++ {
				ts.Step = int32(step)
				if _, err := conn.Write(legacyEncodeTimeStep(ts)); err != nil {
					return
				}
			}
		}(c, conn)
	}
}

func BenchmarkIngestPooled(b *testing.B) {
	stepsPerClient := (b.N + benchClients - 1) / benchClients
	s, bb := ingestHarness(buffer.NewFIFO(benchCap), benchInDim, benchOutDim)
	s.cfg.ExpectedClients = benchClients

	l, err := transport.Listen("127.0.0.1:0", 4096)
	if err != nil {
		b.Fatal(err)
	}

	// Trainer stand-in: drain batches until the buffer is done.
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	discard := func(int, buffer.Sample) {}
	go func() {
		defer consumerWG.Done()
		for {
			if _, ok := bb.GetBatchEach(benchBatch, discard); !ok {
				return
			}
		}
	}()

	start := make(chan struct{})
	var clientWG sync.WaitGroup
	runBenchClients(b, l.Addr(), stepsPerClient, start, &clientWG)

	frame, _ := benchFrame(0)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	close(start)

	received := 0
	a := s.aggs[0]
	for env := range l.Incoming() {
		switch m := env.Msg.(type) {
		case protocol.Hello:
			a.mu.Lock()
			st := a.sim(m.SimID)
			st.ClientID = m.ClientID
			st.Steps = m.Steps
			st.presizeSeen(m.Steps)
			a.mu.Unlock()
		case *protocol.TimeStep:
			s.ingestTimeStep(0, m)
			received++
		}
		if received >= b.N {
			break
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")

	bb.EndReception()
	go func() { // release readers blocked on the envelope queue
		for range l.Incoming() {
		}
	}()
	l.Close()
	clientWG.Wait()
	consumerWG.Wait()
}

// legacyQueue is the seed's heap-sample FIFO buffer: a slice of samples
// behind one mutex, with one cond on which a producer waits for room and
// the consumer for data.
type legacyQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []buffer.Sample
	over  bool
}

func newLegacyQueue() *legacyQueue {
	q := &legacyQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put appends s, waiting while the queue is full and reception is open.
func (q *legacyQueue) put(s buffer.Sample) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) >= benchCap && !q.over {
		q.cond.Wait()
	}
	q.items = append(q.items, s)
	q.cond.Broadcast()
}

// getBatchInto pops up to n samples into dst, waiting for data while
// reception is open; false once the queue drained.
func (q *legacyQueue) getBatchInto(dst []buffer.Sample, n int) ([]buffer.Sample, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	dst = dst[:0]
	for len(dst) < n {
		if len(q.items) == 0 {
			if q.over {
				break
			}
			q.cond.Wait()
			continue
		}
		dst = append(dst, q.items[0])
		q.items[0] = buffer.Sample{}
		q.items = q.items[1:]
		q.cond.Broadcast()
	}
	return dst, len(dst) > 0
}

func (q *legacyQueue) endReception() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.over = true
	q.cond.Broadcast()
}

func BenchmarkIngestLegacy(b *testing.B) {
	stepsPerClient := (b.N + benchClients - 1) / benchClients
	bb := newLegacyQueue()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}

	// Pre-PR receive path: one allocating per-float decode per message
	// into a shared envelope channel.
	msgs := make(chan protocol.TimeStep, 4096)
	var readerWG sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			readerWG.Add(1)
			go func(conn net.Conn) {
				defer readerWG.Done()
				defer conn.Close()
				for {
					m, err := legacyReadTimeStep(conn)
					if err != nil {
						return
					}
					msgs <- m
				}
			}(conn)
		}
	}()

	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		batch := make([]buffer.Sample, 0, benchBatch)
		for {
			got, ok := bb.getBatchInto(batch, benchBatch)
			if !ok {
				return
			}
			batch = got[:0]
		}
	}()

	start := make(chan struct{})
	var clientWG sync.WaitGroup
	runLegacyBenchClients(b, ln.Addr().String(), stepsPerClient, start, &clientWG)

	frame, _ := benchFrame(0)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	close(start)

	// Pre-PR aggregator: global-mutex map dedup, heap samples.
	var mu sync.Mutex
	seen := make(map[buffer.Key]bool)
	received := 0
	for ts := range msgs {
		key := buffer.Key{SimID: int(ts.SimID), Step: int(ts.Step)}
		mu.Lock()
		dup := seen[key]
		if !dup {
			seen[key] = true
		}
		mu.Unlock()
		if !dup {
			bb.put(buffer.Sample{SimID: int(ts.SimID), Step: int(ts.Step), Input: ts.Input, Output: ts.Field})
			received++
		}
		if received >= b.N {
			break
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")

	bb.endReception()
	ln.Close()
	go func() { // release readers blocked on the channel
		for range msgs {
		}
	}()
	clientWG.Wait()
	readerWG.Wait()
	consumerWG.Wait()
}
