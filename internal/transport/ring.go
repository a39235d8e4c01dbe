package transport

// The rank ring: dedicated TCP connections between training ranks running
// as separate processes, carrying gradient collectives (the socket hops of
// ddp.Comm). Every rank listens on a pre-agreed address, dials its
// successor and accepts its predecessor, forming the same directed ring
// ddp.Comm's channel links form inside a process. Frames are the protocol
// package's ([length u32 | type u8 | payload], little-endian), and a
// received frame is read by protocol.ReadFrame, the same bounded reader a
// client connection goes through.
//
// Sends are asynchronous: the caller's goroutine stages the frame into a
// recycled buffer (so the caller's slab is never aliased after SendFloats
// returns) and a persistent writer goroutine performs the socket write.
// This is what keeps the ring deadlock-free — during a collective every
// rank sends before it receives, so a blocking send of a chunk larger than
// the socket buffers would wedge the whole ring. Two staging buffers
// rotate through a free list, making steady-state collectives
// allocation-free, exactly like ddp's recycled channel links.
//
// # Failure model
//
// A ring link is declared dead when it makes no progress for IOTimeout:
// every socket read and write carries a deadline, and a background
// heartbeat goroutine stages a zero-payload RingPing frame every
// HeartbeatInterval (with HeartbeatInterval well below IOTimeout), so on a
// healthy link the predecessor is never silent long enough to trip the
// read deadline — even between collectives. Receivers discard ping frames
// at frame boundaries. Any link failure (deadline expiry, reset, EOF,
// malformed frame) surfaces as an error wrapping ErrLinkDead instead of a
// panic; once a link has failed, every subsequent operation on the Ring
// fails too. Abort force-closes both connections and is safe to call
// concurrently with in-flight collectives — it is how a membership
// controller unwedges a rank that is blocked mid-collective on a dead
// group.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/protocol"
)

// ringHeaderLen is the frame header size: payload length u32 + type u8.
const ringHeaderLen = 5

// ringSendDepth is the number of in-flight staged frames per ring link.
const ringSendDepth = 2

// ringRecvBufSize is the read-ahead buffer on the predecessor link. One
// kernel read typically delivers a frame header together with (much of)
// its payload, so the per-frame receive cost drops from two-plus syscalls
// to about one — a fixed cost shared by both wire codecs.
const ringRecvBufSize = 64 << 10

// Dial backoff bounds for ring formation (see RingListener.Connect).
const (
	ringDialBackoffBase = 20 * time.Millisecond
	ringDialBackoffMax  = 500 * time.Millisecond
)

// ErrLinkDead marks a failure of an established ring link: the peer went
// silent past the IO timeout, reset the connection, or sent a malformed
// frame. It is fatal for the current ring — the group must re-form; ddp
// never retries it.
var ErrLinkDead = errors.New("transport: ring link dead")

// ErrRingAborted marks an operation interrupted by Ring.Abort. It is the
// expected error inside ranks being torn down deliberately during group
// reconfiguration.
var ErrRingAborted = errors.New("transport: ring aborted")

// RingOptions tunes a ring's failure detection and lets tests inject
// faults. The zero value gives production defaults.
type RingOptions struct {
	// IOTimeout bounds the silence tolerated on a link before it is
	// declared dead, and bounds each socket write. 0 means 30s.
	IOTimeout time.Duration
	// HeartbeatInterval is the period of background RingPing frames.
	// 0 means IOTimeout/4; negative disables heartbeats (then the read
	// deadline only makes sense while a collective is in flight).
	HeartbeatInterval time.Duration
	// Identity is carried in the RingHello handshake and verified by the
	// acceptor: ring formation fails unless both ends agree. Hierarchical
	// groups use it to encode the topology (e.g. local ranks per process),
	// so a process launched with a mismatched -ranks fails loudly at
	// formation instead of desynchronizing mid-collective.
	Identity uint32
	// Codec selects the wire encoding of collective float frames (the
	// f16 argument of SendFloats / RecvFloats must agree with it). It
	// rides the RingHello handshake next to Identity and is verified the
	// same way: peers disagreeing on compression fail at formation instead
	// of training divergent trajectories.
	Codec Codec
	// Wrap, when set, wraps each established ring connection after the
	// handshake — the chaos layer's hook (see Chaos.Wrap).
	Wrap func(net.Conn) net.Conn
}

func (o RingOptions) withDefaults() RingOptions {
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = o.IOTimeout / 4
	}
	return o
}

// RingListener is the bound-but-unconnected half of a rank's ring
// endpoint. Binding first and connecting second lets tests use ephemeral
// ports: every rank learns all addresses before any rank dials.
type RingListener struct {
	ln net.Listener
}

// ListenRing binds a rank's collective endpoint on addr
// (use "127.0.0.1:0" for an ephemeral port).
func ListenRing(addr string) (*RingListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: ring listen %s: %w", addr, err)
	}
	return &RingListener{ln: ln}, nil
}

// Addr returns the listener's bound address.
func (l *RingListener) Addr() string { return l.ln.Addr().String() }

// Close releases the endpoint without forming a ring.
func (l *RingListener) Close() error { return l.ln.Close() }

// Ring is one rank's pair of directed ring connections: next carries this
// rank's sends to rank+1, prev carries rank−1's sends to this rank. A ring
// of size 1 has no connections and all operations are no-ops. Collectives
// on a Ring are owned by one goroutine at a time; Close must not race
// in-flight collectives, but Abort may.
type Ring struct {
	rank, size int
	next       net.Conn // to successor (nil when size == 1)
	prev       net.Conn // from predecessor (nil when size == 1)
	ioTimeout  time.Duration
	codec      Codec

	// Wire-byte counters over established links (frame header + payload,
	// heartbeats included), read via WireBytes. They make the compressed
	// codec's byte cut observable in production metrics, not just in
	// benchmarks.
	wireSent atomic.Uint64
	wireRecv atomic.Uint64

	sendData   chan []byte // framed messages awaiting the writer
	sendFree   chan []byte // recycled staging buffers
	writerDone chan struct{}
	sendErr    atomic.Pointer[error] // first write failure, surfaced on later sends

	pingStop chan struct{}
	pingDone chan struct{}

	closeMu sync.Mutex // guards conn closing (Close vs Abort)
	aborted atomic.Bool

	rd      *ringReader // buffered, byte-counted reads from prev
	recvBuf []byte      // recycled frame-body staging for RecvFloats
	hdr     [4]byte
}

// ringReader is the predecessor link's buffered reader. Every kernel read
// carries a fresh deadline (the link timeout stays progress-based: a large
// frame over a slow link is fine as long as bytes keep arriving) and is
// counted into the ring's wire-byte counter at syscall granularity; reads
// at least as large as the buffer bypass it to avoid double copying.
type ringReader struct {
	conn    net.Conn
	timeout time.Duration
	count   *atomic.Uint64
	buf     []byte
	lo, hi  int
}

func (br *ringReader) Read(p []byte) (int, error) {
	if br.lo == br.hi {
		br.conn.SetReadDeadline(time.Now().Add(br.timeout))
		if len(p) >= len(br.buf) {
			n, err := br.conn.Read(p)
			br.count.Add(uint64(n))
			return n, err
		}
		n, err := br.conn.Read(br.buf)
		br.count.Add(uint64(n))
		br.lo, br.hi = 0, n
		if n == 0 {
			return 0, err
		}
	}
	n := copy(p, br.buf[br.lo:br.hi])
	br.lo += n
	return n, nil
}

// ConnectContext forms the ring: the listener's rank dials
// addrs[(rank+1)%size] — retrying with exponential backoff and jitter
// until timeout or ctx cancellation, so processes may start in any order —
// and accepts one connection from its predecessor, verified by a RingHello
// handshake. The listener is consumed: it is closed once the ring is
// established, and on every error path.
func (l *RingListener) ConnectContext(ctx context.Context, rank int, addrs []string, timeout time.Duration, opts RingOptions) (*Ring, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		l.ln.Close()
		return nil, fmt.Errorf("transport: ring rank %d out of range [0,%d)", rank, size)
	}
	opts = opts.withDefaults()
	r := &Ring{rank: rank, size: size, ioTimeout: opts.IOTimeout, codec: opts.Codec}
	if size == 1 {
		l.ln.Close()
		return r, nil
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	// Dial the successor in the background while accepting the
	// predecessor: with two ranks each side must do both at once.
	type dialResult struct {
		conn net.Conn
		err  error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		succ := addrs[(rank+1)%size]
		conn, err := dialRing(dctx, succ, rank, opts.Identity, opts.Codec)
		dialed <- dialResult{conn: conn, err: err}
	}()

	fail := func(err error) (*Ring, error) {
		l.ln.Close()
		if d := <-dialed; d.conn != nil {
			d.conn.Close()
		}
		return nil, err
	}

	// Unblock Accept on ctx cancellation as well as on the deadline.
	if tl, ok := l.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	stopWatch := context.AfterFunc(dctx, func() { l.ln.Close() })
	conn, err := l.ln.Accept()
	stopWatch()
	if err != nil {
		if cerr := context.Cause(ctx); cerr != nil {
			err = cerr
		}
		return fail(fmt.Errorf("transport: accepting ring predecessor: %w", err))
	}
	from, identity, codec, err := readRingHello(conn)
	if err != nil {
		conn.Close()
		return fail(err)
	}
	want := (rank - 1 + size) % size
	if from != want {
		conn.Close()
		return fail(fmt.Errorf("transport: ring rank %d accepted rank %d, want predecessor %d", rank, from, want))
	}
	if identity != opts.Identity {
		conn.Close()
		return fail(fmt.Errorf("transport: ring rank %d: predecessor %d identity %#x, want %#x (mismatched topology config?)", rank, from, identity, opts.Identity))
	}
	if codec != opts.Codec {
		conn.Close()
		return fail(fmt.Errorf("transport: ring rank %d: predecessor %d codec %v, want %v (mismatched -grad-compress config?)", rank, from, codec, opts.Codec))
	}
	r.prev = conn
	l.ln.Close()

	d := <-dialed
	if d.err != nil {
		r.prev.Close()
		return nil, d.err
	}
	r.next = d.conn

	if opts.Wrap != nil {
		r.prev = opts.Wrap(r.prev)
		r.next = opts.Wrap(r.next)
	}
	r.rd = &ringReader{
		conn:    r.prev,
		timeout: r.ioTimeout,
		count:   &r.wireRecv,
		buf:     make([]byte, ringRecvBufSize),
	}

	r.sendData = make(chan []byte, ringSendDepth)
	r.sendFree = make(chan []byte, ringSendDepth)
	for i := 0; i < ringSendDepth; i++ {
		r.sendFree <- nil // sized lazily on first send
	}
	r.writerDone = make(chan struct{})
	go r.writeLoop()
	if opts.HeartbeatInterval > 0 {
		r.pingStop = make(chan struct{})
		r.pingDone = make(chan struct{})
		go r.pingLoop(opts.HeartbeatInterval)
	}
	return r, nil
}

// dialRing dials the successor with exponential backoff and jitter until
// ctx expires, then sends the identifying RingHello.
func dialRing(ctx context.Context, succ string, rank int, identity uint32, codec Codec) (net.Conn, error) {
	var dialer net.Dialer
	backoff := ringDialBackoffBase
	var lastErr error
	for {
		conn, err := dialer.DialContext(ctx, "tcp", succ)
		if err == nil {
			// Identify ourselves so the acceptor can verify ring order.
			if err := writeRingHello(conn, rank, identity, codec); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		}
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, fmt.Errorf("transport: dialing ring successor %s: %w (last error: %v)", succ, context.Cause(ctx), lastErr)
		}
		lastErr = err
		// Full jitter in [backoff/2, 3*backoff/2): desynchronizes ranks
		// that all started (or all restarted) at the same instant.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff)))
		select {
		case <-ctx.Done():
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > ringDialBackoffMax {
			backoff = ringDialBackoffMax
		}
	}
}

// writeLoop is the persistent writer: it drains staged frames in order and
// recycles their buffers. Every write carries a deadline, so a wedged or
// partitioned successor turns into a recorded error (surfaced on later
// sends) rather than a permanently blocked ring. On failure it keeps
// draining so stagers never block.
func (r *Ring) writeLoop() {
	defer close(r.writerDone)
	for buf := range r.sendData {
		if r.sendErr.Load() == nil {
			r.next.SetWriteDeadline(time.Now().Add(r.ioTimeout))
			if n, err := r.next.Write(buf); err != nil {
				r.wireSent.Add(uint64(n))
				werr := r.linkErr(fmt.Sprintf("send to rank %d", (r.rank+1)%r.size), err)
				r.sendErr.Store(&werr)
			} else {
				r.wireSent.Add(uint64(n))
			}
		}
		r.sendFree <- buf
	}
}

// pingLoop stages a heartbeat frame every interval so the successor's read
// deadline only expires when this rank is actually gone. It stops on Close,
// Abort, or the first send failure.
func (r *Ring) pingLoop(interval time.Duration) {
	defer close(r.pingDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.pingStop:
			return
		case <-tick.C:
			if r.stage(protocol.TypeRingPing, 0, nil) != nil {
				return
			}
		}
	}
}

// stage frames typ+payload into a recycled buffer and hands it to the
// writer. fill writes the payload into the staging buffer. Safe for
// concurrent use (collective sends interleave with heartbeats at frame
// granularity).
func (r *Ring) stage(typ protocol.MsgType, payloadLen int, fill func(dst []byte)) error {
	if payloadLen+1 > protocol.MaxFrameSize {
		// Caught on the sender so the receiver never misreads an
		// oversized frame as stream corruption (or a >4 GiB length as a
		// wrapped u32).
		return fmt.Errorf("transport: ring payload %d bytes exceeds frame limit %d", payloadLen, protocol.MaxFrameSize-1)
	}
	if r.aborted.Load() {
		return fmt.Errorf("transport: ring rank %d send: %w", r.rank, ErrRingAborted)
	}
	if err := r.sendErr.Load(); err != nil {
		return *err
	}
	buf := <-r.sendFree
	need := ringHeaderLen + payloadLen
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf, uint32(1+payloadLen))
	buf[4] = byte(typ)
	if fill != nil {
		fill(buf[ringHeaderLen:])
	}
	r.sendData <- buf
	return nil
}

// Rank returns this endpoint's ring position.
func (r *Ring) Rank() int { return r.rank }

// Size returns the number of ranks in the ring.
func (r *Ring) Size() int { return r.size }

// Codec returns the negotiated wire codec for collective float frames.
// Both ends of every link agreed on it during the handshake.
func (r *Ring) Codec() Codec { return r.codec }

// WireBytes returns the cumulative bytes written to and read from the
// ring links (frame headers + payloads + heartbeats). Safe to call
// concurrently with in-flight collectives.
func (r *Ring) WireBytes() (sent, recv uint64) {
	return r.wireSent.Load(), r.wireRecv.Load()
}

// Abort force-closes both ring connections. Unlike Close it is safe to
// call concurrently with in-flight collectives: blocked reads and writes
// fail immediately with errors wrapping ErrRingAborted. The membership
// controller uses it to unwedge ranks blocked mid-collective on a dead
// group. Close must still be called afterwards to stop the writer.
func (r *Ring) Abort() {
	if r.aborted.Swap(true) {
		return
	}
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	for _, c := range []net.Conn{r.next, r.prev} {
		if c != nil {
			c.Close()
		}
	}
}

// Close stops the heartbeat and writer goroutines and tears both ring
// connections down. It must not race an in-flight collective (use Abort to
// interrupt one first).
func (r *Ring) Close() error {
	if r.pingStop != nil {
		close(r.pingStop)
		<-r.pingDone
		r.pingStop = nil
	}
	if r.sendData != nil {
		close(r.sendData)
		<-r.writerDone
		r.sendData = nil
	}
	aborted := r.aborted.Load()
	r.closeMu.Lock()
	var first error
	for _, c := range []net.Conn{r.next, r.prev} {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil && !aborted {
			first = err
		}
	}
	r.next, r.prev = nil, nil
	r.closeMu.Unlock()
	return first
}

// linkErr classifies a socket failure on an established link: every
// failure is fatal for this ring, wrapping ErrRingAborted when Abort
// caused it and ErrLinkDead otherwise (with deadline expiry spelled out as
// peer silence, since heartbeats make the two equivalent).
func (r *Ring) linkErr(op string, err error) error {
	if r.aborted.Load() {
		return fmt.Errorf("transport: ring rank %d %s: %w", r.rank, op, ErrRingAborted)
	}
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("transport: ring rank %d %s: no traffic for %v (peer dead or partitioned): %w", r.rank, op, r.ioTimeout, ErrLinkDead)
	}
	return fmt.Errorf("transport: ring rank %d %s: %v: %w", r.rank, op, err, ErrLinkDead)
}

// floatFrame returns the frame type and bytes per element of a collective
// float frame: RingFloats16 (binary16) when f16 is set, RingFloats
// (float32) otherwise.
func floatFrame(f16 bool) (protocol.MsgType, int) {
	if f16 {
		return protocol.TypeRingFloats16, 2
	}
	return protocol.TypeRingFloats, 4
}

// SendFloats stages vals as one float frame for the successor, quantized to
// binary16 with round-to-nearest-even when f16 is set. vals is fully copied
// (and encoded) before SendFloats returns, so the caller may overwrite it
// immediately. Values already representable in binary16 travel losslessly,
// which is what keeps forwarded all-gather chunks identical on every rank.
func (r *Ring) SendFloats(vals []float32, f16 bool) error {
	typ, width := floatFrame(f16)
	return r.stage(typ, width*len(vals), func(dst []byte) {
		if f16 {
			protocol.EncodeF16s(dst, vals)
		} else {
			protocol.EncodeF32s(dst, vals)
		}
	})
}

// RecvFloats reads one float frame from the predecessor into dst — added
// element-wise when add is set (the reduce step, fused with the decode),
// overwriting it otherwise. f16 must match the sender's. dst must have
// exactly the sent length (collectives are lockstep, so lengths always
// agree): a frame of another type or length is a protocol violation and
// kills the link. The frame-body staging buffer is recycled.
func (r *Ring) RecvFloats(dst []float32, add, f16 bool) error {
	typ, payload, err := r.readFrame()
	if err != nil {
		return err
	}
	want, width := floatFrame(f16)
	if typ != want {
		return fmt.Errorf("transport: ring rank %d: unexpected frame type %d, want %d: %w", r.rank, typ, want, ErrLinkDead)
	}
	if len(payload) != width*len(dst) {
		return fmt.Errorf("transport: ring rank %d: float frame %d bytes, want %d: %w", r.rank, len(payload), width*len(dst), ErrLinkDead)
	}
	switch {
	case f16 && add:
		protocol.AddF16s(dst, payload)
	case f16:
		protocol.DecodeF16s(dst, payload)
	case add:
		protocol.AddF32s(dst, payload)
	default:
		protocol.DecodeF32s(dst, payload)
	}
	return nil
}

// readFrame reads one frame from the predecessor through protocol.ReadFrame
// into the recycled receive buffer, discarding heartbeat frames. Every
// kernel read carries a deadline: a predecessor silent for IOTimeout (no
// data, no pings) is declared dead.
func (r *Ring) readFrame() (protocol.MsgType, []byte, error) {
	for {
		body, err := protocol.ReadFrame(r.rd, &r.hdr, r.recvBuf)
		if body != nil {
			r.recvBuf = body[:0]
		}
		if err != nil {
			return 0, nil, r.linkErr("recv", err)
		}
		if typ := protocol.MsgType(body[0]); typ != protocol.TypeRingPing {
			return typ, body[1:], nil
		}
		if len(body) != 1 {
			return 0, nil, fmt.Errorf("transport: ring rank %d: ping frame with %d-byte payload: %w", r.rank, len(body)-1, ErrLinkDead)
		}
	}
}

// writeRingHello sends the one-shot rank handshake on a dialed connection:
// the dialer's ring rank, its topology identity, and its wire codec.
func writeRingHello(conn net.Conn, rank int, identity uint32, codec Codec) error {
	var buf [ringHeaderLen + 12]byte
	binary.LittleEndian.PutUint32(buf[:], 13)
	buf[4] = byte(protocol.TypeRingHello)
	binary.LittleEndian.PutUint32(buf[ringHeaderLen:], uint32(rank))
	binary.LittleEndian.PutUint32(buf[ringHeaderLen+4:], identity)
	binary.LittleEndian.PutUint32(buf[ringHeaderLen+8:], uint32(codec))
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetWriteDeadline(time.Time{})
	if _, err := conn.Write(buf[:]); err != nil {
		return fmt.Errorf("transport: ring hello: %w", err)
	}
	return nil
}

// readRingHello reads the rank+identity+codec handshake from an accepted
// connection.
func readRingHello(conn net.Conn) (rank int, identity uint32, codec Codec, err error) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	var buf [ringHeaderLen + 12]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("transport: reading ring hello: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[:4]) != 13 || protocol.MsgType(buf[4]) != protocol.TypeRingHello {
		return 0, 0, 0, fmt.Errorf("transport: malformed ring hello")
	}
	rank = int(binary.LittleEndian.Uint32(buf[ringHeaderLen:]))
	identity = binary.LittleEndian.Uint32(buf[ringHeaderLen+4:])
	codec = Codec(binary.LittleEndian.Uint32(buf[ringHeaderLen+8:]))
	return rank, identity, codec, nil
}
