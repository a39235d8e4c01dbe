// Package ddp implements the distributed data-parallel primitive: the
// all-reduce over a fixed group of training ranks, run by one ring
// communicator, Comm. It is the only collective the trainer issues — the
// per-step status reduction is also its barrier and its stop signal, and
// every process builds the same seeded model, so nothing is ever broadcast.
//
// The paper's server trains with "distributed data parallelism … After each
// batch backpropagation, the locally computed vector of weight updates is
// all-reduced between all processes and applied to each local NN copy to
// keep them identical" (§3.1). Comm runs the bandwidth-optimal ring
// scatter-reduce/all-gather pattern NCCL uses, so its cost model
// (2(n−1)/n · bytes) is also what the cluster simulator charges for
// gradient synchronization.
//
// # One ring, three link layouts
//
// The ring is always the flat ring over all procs×local global ranks —
// same chunking, same accumulation order — so collective results are
// bit-identical however the ranks are packed into processes. Only the
// physical hop from a rank to its successor differs: between two ranks of
// one process it is a channel link that carries a reference to the sender's
// chunk and is flow-controlled by credits (see link), and from a process's
// last rank to the next process's first it is the transport.Ring socket.
// That gives three layouts of the one mechanism:
//
//   - in-process (NewCommunicator): one process, no socket ring; every hop
//     is a channel link and the last link wraps around.
//   - flat TCP (local = 1): one rank per OS process; every hop is a socket.
//   - hierarchical (local > 1): several ranks per process; a host running M
//     ranks needs one ring connection pair instead of M.
//
// A rank waiting on a channel hop spins, yielding, for tensor.SpinWindow
// before it parks: the rank at the other end is in the same step.
//
// The trainer all-reduces gradients only over the two socket layouts. In
// the in-process layout its ranks share the weights and read each other's
// gradient slabs directly, so its update pass adds them itself, chunk by
// chunk in the ring's order (ChunkRange), and the weights come out the same
// bits in all three layouts; the in-process ring carries only the per-step
// status.
//
// Collectives operate directly on the caller's flat buffer — for training,
// nn.Network.FlatGrads — so there is no gather/scatter staging copy, a
// channel hop adds or copies straight out of the sender's buffer, and every
// layout is allocation-free in steady state. Ranks of one process must
// therefore pass distinct buffers, and a buffer belongs to the collective
// until the call returns.
//
// # Bucketed overlap
//
// The range collectives (AllReduceSumRange) exist so the trainer can
// overlap gradient synchronization with backpropagation: the flat gradient
// slab is bucketed by layer boundaries (nn.Network.GradBuckets), and each
// bucket's all-reduce is launched as soon as its layer's gradients are
// final, while earlier layers are still back-propagating. Because every
// bucket's reduction order is fixed by its own ring chunking, launching
// buckets eagerly (overlapped) or after the full backward pass (serially)
// produces bit-identical results.
//
// # Wire compression
//
// Socket hops optionally compress collective payloads to IEEE 754 binary16
// (transport.CodecF16), halving inter-node all-reduce bytes while every rank
// keeps accumulating in float32; channel hops and sub-compressMinFloats
// frames always move exact float32. The codec is the ring's: it comes from
// transport.RingOptions.Codec, the handshake refuses a peer that disagrees,
// and Comm adopts what the ring negotiated (WireCodec). AllReduceSumRange
// feeds each rank's own rounding error back into the next step;
// AllReduceSum does not. docs/communication.md has the codec math and the
// determinism contract.
//
// # The communicator is the group
//
// A *Comm is the one handle a process trains through: it knows its span of
// global ranks (RankOffset, LocalRanks, Size), its wire codec and its wire
// bytes, so nothing beside it restates them.
//
// # Failure model
//
// Collectives return errors instead of panicking. Channel hops cannot fail
// on their own; a socket hop fails when its ring link does — heartbeats and
// IO deadlines (transport.RingOptions) detect a dead or partitioned peer
// within one IO timeout. The first error (or Abort) poisons the whole
// communicator: it is recorded and every channel link is sent a wake-up,
// which unwedges local ranks parked on channel hops mid-collective —
// without it, only the ranks next to the socket would observe the fault.
// Only connection establishment is transient (see transient) and retried in
// place, by Retry; an error from a collective — Abort during group
// reconfiguration, or the death of an established link — ends the
// communicator: the group re-forms over the survivors and rolls back to the
// last group checkpoint, which internal/elastic implements. A communicator
// that returned a non-nil error must be closed, never reused.
package ddp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/protocol"
	"melissa/internal/tensor"
	"melissa/internal/transport"
)

// compressMinFloats is the smallest collective (total elements) that rides
// the compressed wire format on a compressed ring. Tiny collectives — the
// trainer's 3-float status reduction — are latency-bound, save nothing from
// half-width frames, and often carry counts whose exactness matters, so they
// stay full-width float32. The
// threshold is a pure function of the collective's total length, which
// every rank knows identically, so senders and receivers always agree on
// the frame type.
const compressMinFloats = 16

// linkDepth is the number of credits a channel link circulates: how many
// chunks a sender may have handed over that its successor has not read yet.
const linkDepth = 2

// link is one directed in-process hop of the ring. It owns no storage: the
// sender takes a credit from free and passes a reference to its own chunk
// through data; the receiver adds or copies straight out of the sender's
// buffer and returns the credit. A credit is an empty token, not a buffer.
//
// Reading a peer's buffer in place is safe by the ring's own causality.
// Within one collective a rank rewrites a chunk it has sent only when the
// finished sum of that chunk comes back around the ring, and the sum can
// only get there through the successor that read the chunk. Across
// collectives, allReduce settles before it returns: a rank whose successor
// is in-process waits until every credit is home, so the successor holds no
// reference and the caller may write its buffer at once.
//
// Poisoning (fail) rests on two invariants that nothing enforces. A link
// circulates at most linkDepth credits, so with the one spare slot per
// channel no send on a link ever blocks; only receives do. And each channel
// has one receiver at a time, the goroutine of the rank on that side (data:
// the successor, free: the sender), so fail's one wake-up per channel
// reaches everyone who can be parked; a second goroutine parked on the same
// channel would never be woken.
type link struct {
	data chan []float32
	free chan struct{}
}

func newLink() link {
	l := link{
		data: make(chan []float32, linkDepth+1),
		free: make(chan struct{}, linkDepth+1),
	}
	for i := 0; i < linkDepth; i++ {
		l.free <- struct{}{}
	}
	return l
}

// Comm is the ring communicator: this process hosts local consecutive
// global ranks (one goroutine each), joined to the other processes' ranks
// by the inter-process transport.Ring. Every collective must be entered by
// all ranks concurrently, like an MPI communicator, with matching arguments
// (equal buffer lengths, identical ranges); a rank names itself by its
// global rank in [0, Size). Results are deterministic: identical on every
// rank and across repeated runs. See the package comment for the three link
// layouts and the failure model.
type Comm struct {
	ring   *transport.Ring // nil for the in-process layout
	codec  transport.Codec
	procs  int // processes on the socket ring (1: every hop is a channel link)
	local  int // ranks hosted in this process
	offset int // first global rank hosted here
	size   int // procs * local

	// links[l] carries messages local rank l → local rank l+1. With a
	// single process the last link wraps around (local−1 → 0) in place of
	// the socket hop.
	links []link

	// res[l] is local rank l's error-feedback residual slab (CodecF16):
	// res[l][i] carries the quantization error of slab offset i from one
	// step into the next. Each slab is touched only by its rank's goroutine.
	res [][]float32

	firstErr atomic.Pointer[error] // the failure that poisoned the communicator
	failOnce sync.Once             // guards the one wake-up per link
}

// TCPComm and HierComm are the names bench/ uses for the flat-TCP and
// hierarchical layouts of Comm, and Communicator its name for a handle on
// any of them.
type (
	TCPComm      = Comm
	HierComm     = Comm
	Communicator = *Comm
)

// NewCommunicator creates the in-process layout: n ranks of this process
// on a ring of channel links.
func NewCommunicator(n int) *Comm { return NewHierComm(nil, n) }

// NewTCPComm wraps a connected rank ring as the flat layout: one rank per
// process.
func NewTCPComm(ring *transport.Ring) *Comm { return NewHierComm(ring, 1) }

// NewHierComm wraps a connected inter-process ring as the communicator for
// localRanks consecutive global ranks hosted in this process, adopting the
// wire codec the ring negotiated at formation. The global group has
// ring.Size()·localRanks ranks; this process serves
// [ring.Rank()·localRanks, (ring.Rank()+1)·localRanks). A nil ring is the
// in-process layout.
func NewHierComm(ring *transport.Ring, local int) *Comm {
	if local <= 0 {
		panic(fmt.Sprintf("ddp: invalid local rank count %d", local))
	}
	c := &Comm{
		ring:  ring,
		procs: 1,
		local: local,
		links: make([]link, local),
		res:   make([][]float32, local),
	}
	if ring != nil {
		c.codec = ring.Codec()
		c.procs = ring.Size()
		c.offset = ring.Rank() * local
	}
	c.size = c.procs * local
	for i := range c.links {
		c.links[i] = newLink()
	}
	return c
}

// Size returns the total rank count across all processes.
func (c *Comm) Size() int { return c.size }

// RankOffset returns the first global rank hosted here: local rank l is
// global rank RankOffset()+l.
func (c *Comm) RankOffset() int { return c.offset }

// LocalRanks returns how many consecutive global ranks are hosted here.
func (c *Comm) LocalRanks() int { return c.local }

// WireCodec returns the ring's negotiated wire codec (CodecF32 for the
// in-process layout).
func (c *Comm) WireCodec() transport.Codec { return c.codec }

// WireBytes returns the bytes moved over the inter-process ring (channel
// hops are free and uncounted).
func (c *Comm) WireBytes() (sent, recv uint64) {
	if c.ring == nil {
		return 0, 0
	}
	return c.ring.WireBytes()
}

// Close tears the inter-process ring down. It must not race in-flight
// collectives; call Abort first to interrupt them.
func (c *Comm) Close() error {
	if c.ring == nil {
		return nil
	}
	return c.ring.Close()
}

// Abort poisons the communicator and force-closes the ring connections:
// every in-flight collective on every local rank fails with an error
// wrapping transport.ErrRingAborted. Safe to call from any goroutine.
func (c *Comm) Abort() {
	if c.ring != nil {
		c.ring.Abort()
	}
	c.fail(fmt.Errorf("ddp: group aborted: %w", transport.ErrRingAborted))
}

// localOf returns the local index of a rank hosted here. Any other rank is
// a programming error, not a link fault, so it panics.
func (c *Comm) localOf(rank int) int {
	if rank < c.offset || rank >= c.offset+c.local {
		panic(fmt.Sprintf("ddp: communicator for ranks [%d,%d) called as rank %d", c.offset, c.offset+c.local, rank))
	}
	return rank - c.offset
}

// fail records the first error, then unwedges local ranks parked on channel
// hops by sending one wake-up through each side of every link (see link for
// the invariants this rests on). A rank checks poisoned after every link
// receive, and the error is stored before the wake-ups are sent, so
// whatever a rank receives from then on — wake-up or message — it returns
// the recorded error. Returns that error.
func (c *Comm) fail(err error) error {
	c.firstErr.CompareAndSwap(nil, &err)
	c.failOnce.Do(func() {
		for i := range c.links {
			c.links[i].data <- nil
			c.links[i].free <- struct{}{}
		}
	})
	return *c.firstErr.Load()
}

// poisoned returns the recorded failure, if any.
func (c *Comm) poisoned() error {
	if p := c.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// socketSend reports whether local rank l's successor lives in the next
// process, socketRecv whether its predecessor lives in the previous one.
func (c *Comm) socketSend(l int) bool { return c.procs > 1 && l == c.local-1 }
func (c *Comm) socketRecv(l int) bool { return c.procs > 1 && l == 0 }

// ringErr poisons the communicator on a socket failure.
func (c *Comm) ringErr(err error) error {
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// sendHop sends vals to local rank l's ring successor. A socket hop has
// copied vals when it returns; a channel hop hands over vals itself, which
// the successor reads until it returns the credit (see link and settle).
// comp selects the binary16 wire encoding on a socket hop.
func (c *Comm) sendHop(l int, vals []float32, comp bool) error {
	if c.socketSend(l) {
		return c.ringErr(c.ring.SendFloats(vals, comp))
	}
	lk := &c.links[l]
	await(lk.free)
	if err := c.poisoned(); err != nil {
		return err
	}
	lk.data <- vals
	return nil
}

// settle waits until local rank l's in-process successor has read every
// chunk l handed it — all of the link's credits are home — so whoever owns
// the buffer may write it again. A socket successor holds no reference.
func (c *Comm) settle(l int) error {
	if c.socketSend(l) {
		return nil
	}
	lk := &c.links[l]
	for i := 0; i < linkDepth; i++ {
		await(lk.free)
		if err := c.poisoned(); err != nil {
			return err
		}
	}
	for i := 0; i < linkDepth; i++ {
		lk.free <- struct{}{}
	}
	return nil
}

// recvHop receives the predecessor's message for local rank l into dst,
// accumulating element-wise when accumulate is set and copying otherwise.
// dst length is the collective's chunk length, which the lockstep protocol
// says matches the sender's; a message of any other length is a protocol
// violation and poisons the communicator like a dead link. comp must match
// the sender's sendHop argument — on a compressed collective the socket hop
// decodes binary16 and accumulates in float32 (fused, no scratch pass).
func (c *Comm) recvHop(l int, dst []float32, accumulate, comp bool) error {
	if c.socketRecv(l) {
		return c.ringErr(c.ring.RecvFloats(dst, accumulate, comp))
	}
	lk := &c.links[(l-1+c.local)%c.local]
	in := await(lk.data)
	if err := c.poisoned(); err != nil {
		return err
	}
	if len(in) != len(dst) {
		return c.fail(fmt.Errorf("ddp: rank %d received a %d-float hop, expected %d", c.offset+l, len(in), len(dst)))
	}
	if accumulate {
		tensor.Add(dst, in)
	} else {
		copy(dst, in)
	}
	lk.free <- struct{}{}
	return nil
}

// await receives from a channel hop, spinning before it parks: the rank at
// the other end is a sibling in the same step, usually microseconds away,
// and a parked goroutine takes far longer than that to wake (see
// tensor.SpinWindow). It yields while it spins, so a runnable producer or
// ingest goroutine goes first.
func await[T any](ch chan T) T {
	for start := time.Now(); ; runtime.Gosched() {
		select {
		case v := <-ch:
			return v
		default:
		}
		if time.Since(start) >= tensor.SpinWindow {
			return <-ch
		}
	}
}

// ChunkRange returns the bounds [lo, hi) of the i-th of n near-equal
// contiguous chunks of a length-sized buffer: the chunks a collective over
// n ranks splits its buffer into. The ring fixes each chunk's reduction
// order: in chunk k the sum is ((g_k + g_{k+1}) + …) + g_{k−1}, rank indices
// taken mod n, on every layout. Pure arithmetic — no boundary slice is
// materialized on the hot path.
func ChunkRange(length, n, i int) (lo, hi int) {
	base, rem := length/n, length%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// compressed reports whether a collective over total floats uses the f16
// wire encoding on its socket hops. Identical on every rank (the codec is
// handshake-negotiated and total is a collective invariant), so ranks agree
// on frame types without extra coordination.
func (c *Comm) compressed(total int) bool {
	return c.codec.Compressed() && c.procs > 1 && total >= compressMinFloats
}

// residual returns local rank l's error-feedback slab view for absolute
// offsets [lo,hi), growing (zero-extended) on demand.
func (c *Comm) residual(l, lo, hi int) []float32 {
	if hi > len(c.res[l]) {
		grown := make([]float32, hi)
		copy(grown, c.res[l])
		c.res[l] = grown
	}
	return c.res[l][lo:hi]
}

// AllReduceSum replaces buf on every rank with the element-wise sum across
// ranks, using a ring scatter-reduce followed by a ring all-gather. The
// reduction order for each chunk is fixed by ring position, so results are
// deterministic and identical on every rank. On a compressed ring the
// socket hops travel as binary16 (without error feedback — see
// AllReduceSumRange for the error-fed gradient path).
func (c *Comm) AllReduceSum(rank int, buf []float32) error {
	return c.allReduce(rank, buf, nil)
}

// AllReduceSumRange all-reduces buf[lo:hi] as an independent collective,
// chunked relative to the range, and leaves the rest of buf untouched. It
// is the bucketed-overlap primitive: every rank must issue the same
// sequence of ranges in the same order. On a compressed ring this is the
// error-fed path: the absolute range offsets index the rank's
// persistent residual slab (the caller contract — ranges into one stable
// slab per rank, e.g. the flat gradient slab — is what makes residuals
// meaningful across steps; AllReduceSum's transient buffers have none).
func (c *Comm) AllReduceSumRange(rank int, buf []float32, lo, hi int) error {
	sub := buf[lo:hi]
	var res []float32
	if c.compressed(len(sub)) {
		res = c.residual(c.localOf(rank), lo, hi)
	}
	return c.allReduce(rank, sub, res)
}

// allReduce runs the ring sum over buf. res, when non-nil, is this rank's
// error-feedback residual aligned with buf (compressed range collectives
// only).
//
// Compressed mode keeps all arithmetic in float32: wire chunks are
// quantized per socket hop, receivers expand and accumulate at full width.
// After scatter-reduce, each rank re-quantizes the one chunk it finished in
// place before gathering — binary16 values re-encode losslessly, so every
// rank reconstructs bit-identical results regardless of how many socket
// hops each chunk crossed.
func (c *Comm) allReduce(rank int, buf []float32, res []float32) error {
	l := c.localOf(rank)
	if err := c.poisoned(); err != nil {
		return err
	}
	n := c.size
	if n == 1 {
		return nil
	}
	comp := c.compressed(len(buf))
	if comp && res != nil {
		// Error-feedback pre-pass: quantize local contribution + carried
		// residual, store the fresh quantization error back (fused kernel).
		protocol.QuantizeEF(buf, res)
	}
	chunk := func(i int) []float32 {
		lo, hi := ChunkRange(len(buf), n, ((i%n)+n)%n)
		return buf[lo:hi]
	}
	// Scatter-reduce: after step s, rank r has accumulated s+1 terms into
	// chunk (r-s); after n-1 steps chunk (r+1) holds the complete sum. A
	// chunk sent here is not written again before the all-gather brings its
	// finished sum back (see link).
	for s := 0; s < n-1; s++ {
		if err := c.sendHop(l, chunk(rank-s), comp); err != nil {
			return err
		}
		if err := c.recvHop(l, chunk(rank-s-1), true, comp); err != nil {
			return err
		}
	}
	if comp {
		protocol.RoundF16s(chunk(rank + 1))
	}
	// All-gather: circulate the completed chunks.
	for s := 0; s < n-1; s++ {
		if err := c.sendHop(l, chunk(rank+1-s), comp); err != nil {
			return err
		}
		if err := c.recvHop(l, chunk(rank-s), false, comp); err != nil {
			return err
		}
	}
	return c.settle(l)
}
