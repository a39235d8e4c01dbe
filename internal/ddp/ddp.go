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
// # One ring, three layouts
//
// The reduction is always the flat ring's over all procs×local global
// ranks — same chunking, same accumulation order — so collective results
// are bit-identical however the ranks are packed into processes. The ranks
// of one process never message each other. Each posts its buffer in its
// slot and arrives at the communicator's one barrier; the last to arrive
// does the process's whole share of the collective, reading and writing
// every posted buffer, and then releases the others. A rank may read a
// sibling's buffer only there, between the sibling's arrival and the
// release, and only the last arrival does. That gives three layouts:
//
//   - in-process (NewCommunicator): one process, no socket ring. The last
//     arrival sums every chunk k in ring order, ((g_k + g_{k+1}) + …) +
//     g_{k−1} (ChunkRange), and writes the sum into every posted buffer.
//   - flat TCP (local = 1): one rank per OS process, the ring's every hop
//     a transport.Ring socket.
//   - hierarchical (local > 1): several ranks per process; a host running M
//     ranks needs one ring connection pair instead of M. The last arrival
//     runs the flat ring's schedule for the process's one socket hop (see
//     sumRing), so every frame carries the floats the flat ring's would.
//
// A rank waiting at the barrier spins, yielding, for tensor.SpinWindow
// before it parks: its siblings are in the same step. Over a socket ring it
// parks as soon as the last arrival starts the round's socket work.
//
// The trainer all-reduces gradients only over the two socket layouts. In
// the in-process layout its ranks share the weights and read each other's
// gradient slabs directly, so its update pass adds them itself, chunk by
// chunk in the ring's order (ChunkRange), and the weights come out the same
// bits in all three layouts; the in-process collective carries only the
// per-step status. Meet is the step's barrier, and the trainer hands it a
// round's work as a collective hands it the reduction: the last arrival
// counts the step at the first Meet and runs the process's step boundary
// (validation, then OnBatchEnd, where the server checkpoints) at the
// second.
//
// Collectives operate directly on the caller's flat buffer — for training,
// nn.Network.FlatGrads — so there is no gather/scatter staging copy, and
// every layout is allocation-free in steady state. Ranks of one process
// must therefore pass distinct buffers, and a buffer belongs to the
// collective until the call returns; it is whole again, and the caller's
// alone, the moment the call returns.
//
// # Layer buckets
//
// Where the group spans processes, the trainer all-reduces its flat
// gradient slab after backward as one range collective (AllReduceSumRange)
// per layer bucket (nn.Network.GradBuckets), each chunked over the ranks on
// its own, not the slab's, boundaries. The in-process update pass mirrors
// exactly that chunking when it sums the slabs itself, so both give the
// same bits.
//
// # Wire compression
//
// Socket hops optionally compress collective payloads to IEEE 754 binary16
// (transport.CodecF16), halving inter-node all-reduce bytes while every rank
// keeps accumulating in float32; in-process sums and sub-compressMinFloats
// frames are always exact float32. The codec is the ring's: it comes from
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
// Collectives return errors instead of panicking. A socket hop fails when
// its ring link does — heartbeats and IO deadlines (transport.RingOptions)
// detect a dead or partitioned peer within one IO timeout — and a local rank
// whose buffer length differs from its siblings' fails the collective. The
// first error (or Abort) poisons the whole communicator: it breaks the
// barrier, so every local rank waiting there returns the error, and so does
// every later collective and Meet. A rank waiting for a round whose work is
// running waits until that work ends; Abort ends socket work at once by
// aborting the ring. Only connection establishment is transient (see
// transient) and retried in place, by Retry; an error from a collective —
// Abort during group reconfiguration, or the death of an established link —
// ends the communicator: the group re-forms over the survivors and rolls
// back to the last group checkpoint, which internal/elastic implements. A
// communicator that returned a non-nil error must be closed, never reused.
package ddp

import (
	"fmt"

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

// Comm is the ring communicator: this process hosts local consecutive
// global ranks (one goroutine each), joined to the other processes' ranks
// by the inter-process transport.Ring. Every collective must be entered by
// all ranks concurrently, like an MPI communicator, with matching arguments
// (equal buffer lengths, identical ranges); a rank names itself by its
// global rank in [0, Size). Results are deterministic: identical on every
// rank and across repeated runs. See the package comment for the three
// layouts and the failure model.
type Comm struct {
	ring   *transport.Ring // nil for the in-process layout
	codec  transport.Codec
	procs  int // processes on the socket ring (1: no socket hop)
	local  int // ranks hosted in this process
	offset int // first global rank hosted here
	size   int // procs * local

	// bar is where the local ranks meet: every collective and every Meet is
	// one round of it, and its error is the communicator's poison.
	bar *barrier
	// posted[l] is local rank l's buffer in the current collective, set
	// before it arrives at bar; the last arrival reduces them (reduce).
	posted [][]float32

	// res[l] is local rank l's error-feedback residual slab (CodecF16):
	// res[l][i] carries the quantization error of slab offset i from one
	// step into the next. Each slab is touched only by its rank's goroutine.
	res [][]float32
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
// and no socket ring.
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
		ring:   ring,
		procs:  1,
		local:  local,
		posted: make([][]float32, local),
		res:    make([][]float32, local),
	}
	if ring != nil {
		c.codec = ring.Codec()
		c.procs = ring.Size()
		c.offset = ring.Rank() * local
	}
	c.size = c.procs * local
	c.bar = newBarrier(local, c.procs > 1)
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

// WireBytes returns the bytes moved over the inter-process ring (what the
// ranks of one process read of each other moves no bytes).
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
// every in-flight collective and Meet on every local rank fails with an
// error wrapping transport.ErrRingAborted. Safe to call from any goroutine.
func (c *Comm) Abort() {
	if c.ring != nil {
		c.ring.Abort()
	}
	c.bar.fail(fmt.Errorf("ddp: group aborted: %w", transport.ErrRingAborted))
}

// Meet holds local rank rank until every local rank of this process has
// called it: the trainer's step barrier. The last to arrive runs work, when
// it is not nil, alone, before it releases the others — the round's work,
// which may read anything its siblings wrote before they arrived; an error
// from it poisons the communicator. Meet returns the communicator's error
// once a collective, a round's work or Abort has poisoned it, so no rank
// waits for a sibling that failed. Meets and collectives are rounds of one
// barrier, so every local rank must issue them in the same order.
func (c *Comm) Meet(rank int, work func() error) error {
	c.localOf(rank)
	return c.bar.wait(work)
}

// localOf returns the local index of a rank hosted here. Any other rank is
// a programming error, not a link fault, so it panics.
func (c *Comm) localOf(rank int) int {
	if rank < c.offset || rank >= c.offset+c.local {
		panic(fmt.Sprintf("ddp: communicator for ranks [%d,%d) called as rank %d", c.offset, c.offset+c.local, rank))
	}
	return rank - c.offset
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
// ranks, in the ring's order. The reduction order for each chunk is fixed
// by ring position, so results are deterministic and identical on every
// rank. On a compressed ring the socket hops travel as binary16 (without
// error feedback — see AllReduceSumRange for the error-fed gradient path).
func (c *Comm) AllReduceSum(rank int, buf []float32) error {
	return c.allReduce(rank, buf, nil)
}

// AllReduceSumRange all-reduces buf[lo:hi] as an independent collective,
// chunked relative to the range, and leaves the rest of buf untouched. It
// is the trainer's per-layer-bucket collective: every rank must issue the
// same sequence of ranges in the same order. On a compressed ring this is the
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

// allReduce runs one collective over buf. res, when non-nil, is this rank's
// error-feedback residual aligned with buf (compressed range collectives
// only): the rank quantizes its own contribution plus the carried residual
// and stores the fresh quantization error back (fused kernel). Then it posts
// buf and arrives at the barrier, whose last arrival runs reduce.
func (c *Comm) allReduce(rank int, buf []float32, res []float32) error {
	l := c.localOf(rank)
	if err := c.bar.failed(); err != nil {
		return err
	}
	if c.size == 1 {
		return nil
	}
	if res != nil {
		protocol.QuantizeEF(buf, res)
	}
	c.posted[l] = buf
	return c.bar.wait(c.reduce)
}

// reduce is a collective's work, run by the last local rank to arrive. It
// first checks the lockstep protocol's word that every local rank posted a
// buffer of one length; a rank that broke it fails the collective for all
// of them, and poisons the communicator like a dead link. On a socket ring
// it also aborts the ring, so the peer processes, which would wait for this
// process's frames for ever, fail too.
func (c *Comm) reduce() error {
	for l, b := range c.posted[1:] {
		if len(b) != len(c.posted[0]) {
			if c.ring != nil {
				c.ring.Abort()
			}
			return fmt.Errorf("ddp: rank %d posted a %d-float buffer, rank %d a %d-float one",
				c.offset+l+1, len(b), c.offset, len(c.posted[0]))
		}
	}
	if c.procs > 1 {
		return c.sumRing()
	}
	c.sumLocal()
	return nil
}

// sumLocal is the in-process layout's reduction: chunk k is summed in ring
// order, ((g_k + g_{k+1}) + …) + g_{k−1}, into rank k's buffer and copied
// from there into every other.
func (c *Comm) sumLocal() {
	bufs, n := c.posted, c.local
	for k := range n {
		lo, hi := ChunkRange(len(bufs[0]), n, k)
		sum := bufs[k][lo:hi]
		for j := 1; j < n; j++ {
			tensor.Add(sum, bufs[(k+j)%n][lo:hi])
		}
		for j := 1; j < n; j++ {
			copy(bufs[(k+j)%n][lo:hi], sum)
		}
	}
}

// sumRing is the reduction where the group spans processes: the flat
// ring's schedule for this process's one socket hop, from its last rank to
// the next process's first, with every local hop replaced by a direct read.
//
// Scatter-reduce: at flat step s the process sends the partial of chunk
// last−s and receives, accumulating, the partial of chunk first−1−s. A
// partial that started in an earlier process arrived L steps before it is
// sent, added into the first local buffer; a chunk that starts here starts
// in its own rank's buffer. Either way the local ranks after that one add
// theirs in rank order, so the frame carries the flat ring's floats. After
// n−1 steps local rank l's chunk first+l+1 needs only ranks 1…l added to
// what came back; each finished chunk lands in the first buffer, rounded
// to binary16 on a compressed ring as the flat ring's finishing rank does.
// All-gather: the finished chunks circulate, except that the last L−1
// steps would bring the process chunks it finished itself, so they are
// skipped. The first buffer then holds the whole sum, which is copied
// into the others.
//
// The sends are staged by the ring's writer goroutine, so this one
// goroutine can send and then receive without deadlock.
func (c *Comm) sumRing() error {
	bufs, n, L := c.posted, c.size, c.local
	length := len(bufs[0])
	comp := c.compressed(length)
	first, last := c.offset, c.offset+L-1
	// chunk is local rank l's view of chunk k, k taken mod n.
	chunk := func(l, k int) []float32 {
		lo, hi := ChunkRange(length, n, ((k%n)+n)%n)
		return bufs[l][lo:hi]
	}
	for s := range n - 1 {
		from := max(L-1-s, 0)
		sum := chunk(from, last-s)
		for l := from + 1; l < L; l++ {
			tensor.Add(sum, chunk(l, last-s))
		}
		if err := c.ring.SendFloats(sum, comp); err != nil {
			return err
		}
		if err := c.ring.RecvFloats(chunk(0, first-1-s), true, comp); err != nil {
			return err
		}
	}
	for l := range L {
		sum := chunk(0, first+l+1)
		for j := 1; j <= l; j++ {
			tensor.Add(sum, chunk(j, first+l+1))
		}
		if comp {
			protocol.RoundF16s(sum)
		}
	}
	for s := range n - L {
		if err := c.ring.SendFloats(chunk(0, last+1-s), comp); err != nil {
			return err
		}
		if err := c.ring.RecvFloats(chunk(0, first-s), false, comp); err != nil {
			return err
		}
	}
	for l := 1; l < L; l++ {
		copy(bufs[l], bufs[0])
	}
	return nil
}
