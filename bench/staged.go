package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/ddp"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/protocol"
	"melissa/internal/tensor"
	"melissa/internal/transport"
)

// stage times calls into one layer: each call becomes a span under the
// current parent and is added to the layer's running total, counted in the
// layer's own unit (frames, batches, steps) so a mean per unit can be read
// back.
type stage struct {
	tr     *tracer
	parent int32
	ns     map[string]int64
	units  map[string]int64
}

func newStage(tr *tracer) *stage {
	return &stage{tr: tr, parent: -1, ns: map[string]int64{}, units: map[string]int64{}}
}

func (s *stage) time(name string, units int, fn func()) (ns int64) {
	start := nowNs()
	fn()
	end := nowNs()
	s.tr.add(name, s.parent, start, end)
	s.ns[name] += end - start
	s.units[name] += int64(units)
	return end - start
}

// perUnitUs is the layer's mean time per unit in microseconds.
func (s *stage) perUnitUs(name string) float64 {
	if s.units[name] == 0 {
		return 0
	}
	return float64(s.ns[name]) / float64(s.units[name]) / 1e3
}

// samplePool draws sims simulations of the workload's problem and returns
// every step as a raw float32 sample, the way a client puts it on the wire.
func samplePool(prob melissa.Problem, cfg melissa.Config, sims int, rng *rand.Rand, firstID int) ([]buffer.Sample, error) {
	lo, hi := prob.ParamBounds()
	var pool []buffer.Sample
	for s := 0; s < sims; s++ {
		params := make([]float64, len(lo))
		for i := range params {
			params[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		fields, err := melissa.Simulate(prob, cfg, params)
		if err != nil {
			return nil, err
		}
		for step, field := range fields {
			in := make([]float32, 0, len(params)+1)
			for _, v := range params {
				in = append(in, float32(v))
			}
			in = append(in, float32(float64(step+1)*cfg.Dt))
			out := make([]float32, len(field))
			for i, v := range field {
				out[i] = float32(v)
			}
			pool = append(pool, buffer.Sample{SimID: firstID + s, Step: step + 1, Input: in, Output: out})
		}
	}
	return pool, nil
}

// stagedReplay walks the live pipeline's public functions in order, on the
// workload's own data, for as many steps as the live run trained — one span
// per call, real gradients, so Adam sees the moments the live run sees. The
// sum of the stages is compared against the live wall time: what is left
// over is waiting, locking and scheduling.
func stagedReplay(sp trainSpec, ro runOptions, live trainRep, rep *report) error {
	cfg := sp.config(ro.seed)
	prob := sp.problem()
	cfg.Problem = prob
	norm := core.AdaptNormalizer(prob.Normalizer(cfg))
	rng := rand.New(rand.NewPCG(ro.seed, 0x57a6ed))
	pool, err := samplePool(prob, cfg, min(sp.sims, 24), rng, 0)
	if err != nil {
		return err
	}
	valSamples, err := samplePool(prob, cfg, sp.valSims, rng, -sp.valSims)
	if err != nil {
		return err
	}
	valSet := core.NewValidationSet(norm, valSamples)

	policy, err := buffer.New(buffer.Config{Kind: buffer.Kind(sp.buffer), Capacity: sp.capacity, Threshold: sp.threshold, Seed: ro.seed})
	if err != nil {
		return err
	}
	buf := buffer.NewBlockingArena(policy, norm.InputDim(), norm.OutputDim())

	listener, err := transport.Listen("127.0.0.1:0", 4096)
	if err != nil {
		return err
	}
	defer listener.Close()
	conn, err := transport.Dial([]string{listener.Addr()}, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()

	spec := core.ModelSpec{InputDim: norm.InputDim(), Hidden: sp.hidden, OutputDim: norm.OutputDim(), Seed: ro.seed}
	net, err := spec.Build()
	if err != nil {
		return err
	}
	adam := opt.NewAdam(cfg.LearningRate)
	schedule := opt.Halving{Initial: cfg.LearningRate, EverySamples: cfg.HalveEvery, Min: cfg.MinLR}
	loss := nn.NewMSELoss()

	batch := cfg.BatchSize
	in := tensor.New(batch, norm.InputDim())
	out := tensor.New(batch, norm.OutputDim())
	staged := make([]buffer.Sample, batch)
	for i := range staged {
		staged[i].Input = make([]float32, norm.InputDim())
		staged[i].Output = make([]float32, norm.OutputDim())
	}
	fill := func(i int, s buffer.Sample) {
		staged[i].SimID, staged[i].Step = s.SimID, s.Step
		copy(staged[i].Input, s.Input)
		copy(staged[i].Output, s.Output)
	}

	// Fill the buffer past its threshold the way the first clients do, off
	// the clock, so every timed step finds a batch.
	next := 0
	draw := func() buffer.Sample {
		s := pool[next%len(pool)]
		s.SimID += (next / len(pool)) * len(pool) // keep (sim, step) keys distinct across cycles
		next++
		return s
	}
	for i := 0; i < sp.threshold+2*batch; i++ {
		s := draw()
		buf.PutCopy(s.SimID, s.Step, s.Input, s.Output)
	}

	steps := live.res.Batches
	// One rank's share: its buffer receives 1/ranks of the ensemble.
	putsPerStep := float64(live.res.UniqueSamples) / float64(steps*sp.ranks)
	st := newStage(ro.tracer)
	ro.tracer.nextRun()
	root := ro.tracer.add("staged.replay", -1, nowNs(), nowNs())

	var (
		msg     protocol.TimeStep
		frames  []byte
		memRd   = bytes.NewReader(nil)
		decoder = protocol.NewReader(memRd)
		arrived = make([]*protocol.TimeStep, 0, 2*batch)
		owed    float64
		samples int
		frameB  int
		adamUs  = make([]float64, 0, steps) // per step: Adam's cost drifts as the moments evolve
		fresh   = make([]buffer.Sample, 0, 2*batch)
	)
	for step := 1; step <= steps; step++ {
		stepStart := nowNs()
		st.parent = ro.tracer.add("staged.step", root, stepStart, stepStart)
		owed += putsPerStep
		k := int(owed)
		owed -= float64(k)
		fresh = fresh[:0]
		for range k {
			fresh = append(fresh, draw())
		}
		if k > 0 {
			// The codec on its own, on the frames this step ships.
			st.time("protocol.encode", k, func() {
				frames = frames[:0]
				for _, s := range fresh {
					msg.SimID, msg.Step, msg.Input, msg.Field = int32(s.SimID), int32(s.Step), s.Input, s.Output
					frames = protocol.AppendEncode(frames, &msg)
				}
			})
			frameB = len(frames) / k
			var derr error
			st.time("protocol.decode", k, func() {
				memRd.Reset(frames)
				for range fresh {
					m, err := decoder.Next()
					if err != nil {
						derr = err
						return
					}
					protocol.RecycleTimeStep(m.(*protocol.TimeStep))
				}
			})
			if derr != nil {
				return fmt.Errorf("staged decode: %w", derr)
			}
			// The client→rank hop through the transport package: k flushed
			// sends, then k envelopes off the rank's queue.
			var serr error
			st.time("transport.frame", k, func() {
				for _, s := range fresh {
					msg.SimID, msg.Step, msg.Input, msg.Field = int32(s.SimID), int32(s.Step), s.Input, s.Output
					if serr = conn.Send(0, &msg); serr != nil {
						return
					}
				}
				arrived = arrived[:0]
				for range fresh {
					env := <-listener.Incoming()
					arrived = append(arrived, env.Msg.(*protocol.TimeStep))
				}
			})
			if serr != nil {
				return fmt.Errorf("staged send: %w", serr)
			}
			st.time("buffer.put", k, func() {
				for _, m := range arrived {
					buf.PutCopy(int(m.SimID), int(m.Step), m.Input, m.Field)
					protocol.RecycleTimeStep(m)
				}
			})
		}
		var n int
		st.time("buffer.get_batch", 1, func() { n, _ = buf.GetBatchEach(batch, fill) })
		if n != batch {
			return fmt.Errorf("staged replay: batch of %d at step %d, want %d", n, step, batch)
		}
		st.time("core.build_batch", 1, func() { core.BuildBatch(norm, staged, in, out) })
		var pred, dy *tensor.Matrix
		st.time("nn.forward", 1, func() { pred = net.Forward(in) })
		st.time("nn.loss", 1, func() {
			loss.Forward(pred, out)
			dy = loss.Backward(pred, out)
		})
		st.time("nn.backward", 1, func() {
			net.ZeroGrad()
			net.Backward(dy)
		})
		samples += batch * sp.ranks
		adam.SetLR(schedule.LR(samples))
		ns := st.time("opt.adam", 1, func() { adam.StepFlat(net.FlatParams(), net.FlatGrads()) })
		adamUs = append(adamUs, float64(ns)/1e3)
		if sp.valEvery > 0 && step%sp.valEvery == 0 {
			st.time("core.validate", 1, func() { core.Validate(net, valSet, batch*4) })
		}
		ro.tracer.setEnd(st.parent, nowNs())
	}
	st.parent = root

	// One-off layers: collectives on a gradient-sized buffer, checkpoint
	// capture, and the training→serving publish.
	grads := len(net.FlatGrads())
	if err := stagedCollectives(st, grads, min(steps, 200), rep); err != nil {
		return err
	}
	if err := stagedCheckpoints(st, sp, cfg, norm, net, adam, buf, steps, samples, ro.outDir, rep); err != nil {
		return err
	}
	ro.tracer.setEnd(root, nowNs())

	var weights int
	prev := norm.InputDim()
	for _, h := range append(append([]int(nil), sp.hidden...), norm.OutputDim()) {
		weights += prev * h
		prev = h
	}
	gemmFlops := 6 * float64(batch) * float64(weights) // forward + dW + dX per step
	window := min(100, len(adamUs))

	l := rep.Layers
	l["protocol.encode_us"] = st.perUnitUs("protocol.encode")
	l["protocol.decode_us"] = st.perUnitUs("protocol.decode")
	l["protocol.frame_bytes"] = float64(frameB)
	l["transport.frame_us"] = st.perUnitUs("transport.frame")
	l["buffer.put_us"] = st.perUnitUs("buffer.put")
	l["buffer.get_batch_us"] = st.perUnitUs("buffer.get_batch")
	l["core.build_batch_us"] = st.perUnitUs("core.build_batch")
	l["nn.forward_us"] = st.perUnitUs("nn.forward")
	l["nn.loss_us"] = st.perUnitUs("nn.loss")
	l["nn.backward_us"] = st.perUnitUs("nn.backward")
	l["tensor.gemm_gflops"] = gemmFlops / ((l["nn.forward_us"] + l["nn.backward_us"]) * 1e3)
	l["opt.adam_us"] = st.perUnitUs("opt.adam")
	l["opt.adam_us_first100"] = mean(adamUs[:window])
	l["opt.adam_us_last100"] = mean(adamUs[len(adamUs)-window:])
	l["core.validate_us"] = st.perUnitUs("core.validate")

	// What one synchronized step costs when its stages run back to back.
	// transport.frame already contains the codec calls transport makes, so
	// the standalone codec figures are not added a second time.
	stepUs := putsPerStep*(l["transport.frame_us"]+l["buffer.put_us"]) +
		l["buffer.get_batch_us"] + l["core.build_batch_us"] +
		l["nn.forward_us"] + l["nn.loss_us"] + l["nn.backward_us"] + l["opt.adam_us"]
	if sp.valEvery > 0 {
		stepUs += l["core.validate_us"] / float64(sp.valEvery)
	}
	if sp.ranks > 1 {
		stepUs += l["ddp.chan_allreduce_us"]
	}
	l["staged.step_us"] = stepUs
	// Ranks take their steps side by side, so ranks·steps staged steps fill
	// ranks·wall rank-seconds: the rank count cancels.
	l["harness.unaccounted_share"] = 1 - float64(steps)*stepUs/1e6/live.wallS
	return nil
}

// stagedCollectives times a 2-rank all-reduce of a gradient-sized buffer on
// each communicator the repo has: the in-process channel ring (the one
// ensemble_2rank trains on), the flat TCP ring, and the hierarchical
// communicator over a TCP ring.
func stagedCollectives(st *stage, floats, iters int, rep *report) error {
	const ranks = 2
	run := func(name string, comms [ranks]ddp.Communicator) error {
		bufs := [ranks][]float32{make([]float32, floats), make([]float32, floats)}
		var wg sync.WaitGroup
		var peerErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i <= iters; i++ {
				if err := comms[1].AllReduceSum(1, bufs[1]); err != nil {
					peerErr = err
					return
				}
			}
		}()
		err := comms[0].AllReduceSum(0, bufs[0]) // warm recycled buffers off the clock
		for i := 0; i < iters && err == nil; i++ {
			st.time(name, 1, func() { err = comms[0].AllReduceSum(0, bufs[0]) })
		}
		wg.Wait()
		if err == nil {
			err = peerErr
		}
		return err
	}

	ch := ddp.NewCommunicator(ranks)
	if err := run("ddp.chan_allreduce", [ranks]ddp.Communicator{ch, ch}); err != nil {
		return err
	}

	rings, err := connectRings(ranks, transport.RingOptions{})
	if err != nil {
		return err
	}
	tcp := [ranks]*ddp.TCPComm{ddp.NewTCPComm(rings[0]), ddp.NewTCPComm(rings[1])}
	sent0, _ := tcp[0].WireBytes()
	err = run("ddp.tcp_allreduce", [ranks]ddp.Communicator{tcp[0], tcp[1]})
	sent1, _ := tcp[0].WireBytes()
	tcp[0].Close()
	tcp[1].Close()
	if err != nil {
		return err
	}

	rings, err = connectRings(ranks, transport.RingOptions{Identity: ddp.GroupIdentity(1)})
	if err != nil {
		return err
	}
	hier := [ranks]*ddp.HierComm{ddp.NewHierComm(rings[0], 1), ddp.NewHierComm(rings[1], 1)}
	err = run("ddp.hier_allreduce", [ranks]ddp.Communicator{hier[0], hier[1]})
	hier[0].Close()
	hier[1].Close()
	if err != nil {
		return err
	}

	rep.Layers["ddp.chan_allreduce_us"] = st.perUnitUs("ddp.chan_allreduce")
	rep.Layers["ddp.tcp_allreduce_us"] = st.perUnitUs("ddp.tcp_allreduce")
	rep.Layers["ddp.hier_allreduce_us"] = st.perUnitUs("ddp.hier_allreduce")
	rep.Layers["ddp.wire_bytes_per_step"] = float64(sent1-sent0) / float64(iters+1)
	return nil
}

// connectRings forms an n-rank loopback TCP ring inside this process.
func connectRings(n int, opts transport.RingOptions) ([]*transport.Ring, error) {
	listeners := make([]*transport.RingListener, n)
	addrs := make([]string, n)
	for r := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[r] = l
		addrs[r] = l.Addr()
	}
	rings := make([]*transport.Ring, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range rings {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rings[rank], errs[rank] = listeners[rank].ConnectContext(context.Background(), rank, addrs, 10*time.Second, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ring connect: %w", err)
		}
	}
	return rings, nil
}

// stagedCheckpoints times what a checkpoint and a publish cost at the end
// of training: Trainer.CaptureState on the trained weights and moments, and
// SurrogateFromNetwork + PublishSurrogate (snapshot, write, fsync, rename).
func stagedCheckpoints(st *stage, sp trainSpec, cfg melissa.Config, norm core.Normalizer, net *nn.Network, adam *opt.Adam,
	buf *buffer.Blocking, batches, samples int, outDir string, rep *report) error {
	var weights, moments bytes.Buffer
	if err := net.SaveWeights(&weights); err != nil {
		return err
	}
	if err := adam.SaveState(&moments); err != nil {
		return err
	}
	trainer, err := core.NewTrainer(core.TrainerConfig{
		Ranks:      1,
		BatchSize:  cfg.BatchSize,
		Model:      core.ModelSpec{InputDim: norm.InputDim(), Hidden: sp.hidden, OutputDim: norm.OutputDim(), Seed: cfg.Seed},
		Normalizer: norm,
	}, []*buffer.Blocking{buf})
	if err != nil {
		return err
	}
	if err := trainer.RestoreState(weights.Bytes(), moments.Bytes(), batches, samples); err != nil {
		return err
	}
	for i := 0; i < 5 && err == nil; i++ {
		st.time("core.capture_state", 1, func() { _, _, err = trainer.CaptureState() })
	}
	if err != nil {
		return err
	}

	path := filepath.Join(outDir, "staged-publish.mlsg")
	defer os.Remove(path)
	for i := 0; i < 3 && err == nil; i++ {
		st.time("melissa.publish", 1, func() {
			var sur *melissa.Surrogate
			if sur, err = melissa.SurrogateFromNetwork(net, cfg); err == nil {
				err = melissa.PublishSurrogate(sur, path)
			}
		})
	}
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.Layers["core.capture_state_us"] = st.perUnitUs("core.capture_state")
	rep.Layers["melissa.publish_us"] = st.perUnitUs("melissa.publish")
	rep.Layers["melissa.checkpoint_bytes"] = float64(info.Size())
	return nil
}
