// Package transport provides the messaging layer between ensemble clients
// and the training server: length-framed protocol messages over TCP, one
// listener per server rank, and client-side fan-out connections to every
// rank. It replaces the paper's ZMQ transport (§3.1) while keeping its
// properties: dynamic N×M client/server connections, non-blocking ingest
// into per-rank queues, and client failure detection via liveness
// timeouts.
//
// The receive path is zero-copy: each connection reader decodes frames
// through a protocol.Reader, so TimeStep envelopes carry leased
// *protocol.TimeStep payloads that the consumer must hand back with
// protocol.RecycleTimeStep once copied out. It reads the socket through a
// pooled read buffer of the send buffer's size (readBuffers), so a
// back-logged socket is drained many frames per read syscall instead of a
// header read and a body read per frame, and a finished simulation's buffer
// serves the next connection instead of the collector. The send path
// encodes each frame into a per-rank scratch buffer and writes it through
// the rank's bufio writer, flushing once per frame.
//
// # Failure model
//
// Client links are supervised by the server's Watchdog: any received
// message beats it, and the launcher kills and restarts clients that go
// silent. Inter-rank ring links (Ring) are supervised by link-level
// heartbeats and IO deadlines: a link silent for RingOptions.IOTimeout is
// declared dead and every ring operation fails with an error wrapping
// ErrLinkDead (never a panic); deliberate teardown during group
// reconfiguration uses Ring.Abort and surfaces as ErrRingAborted. The ddp
// package classifies these errors (transient connection-establishment
// faults retry with backoff; established-link faults are fatal for the
// ring epoch), and the elastic package re-forms the group over survivors.
// The Chaos wrapper injects deterministic, seeded faults (drop / delay /
// duplicate / partition / kill-after-N-writes) into ring links and any
// connection a chaos test wraps; set MELISSA_CHAOS_SEED to replay a CI
// failure.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/protocol"
)

// Envelope is a decoded message tagged with its connection origin.
// TimeStep messages arrive as leased *protocol.TimeStep values (see the
// package comment); everything else arrives by value.
type Envelope struct {
	Msg  protocol.Message
	Addr string
}

// RankListener accepts client connections for one server rank, decoding
// frames into the Incoming channel. The channel is buffered: it plays the
// role of the ZMQ receive queue in which "newly produced data sent by the
// clients still accumulate" while the trainer holds the buffer lock (§4.4).
type RankListener struct {
	ln       net.Listener
	incoming chan Envelope

	mu     sync.Mutex // guards conns, and closed's flip against an accept
	conns  map[net.Conn]struct{}
	closed atomic.Bool

	wg sync.WaitGroup
}

// Listen starts a rank listener on addr (use "127.0.0.1:0" to pick a free
// port). queueLen sizes the ingest channel.
func Listen(addr string, queueLen int) (*RankListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if queueLen <= 0 {
		queueLen = 1024
	}
	l := &RankListener{
		ln:       ln,
		incoming: make(chan Envelope, queueLen),
		conns:    make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's bound address.
func (l *RankListener) Addr() string { return l.ln.Addr().String() }

// Incoming returns the stream of decoded messages from every connected
// client. It is closed after Close once all connection readers exit.
func (l *RankListener) Incoming() <-chan Envelope { return l.incoming }

// Close stops accepting, closes every client connection, and closes the
// Incoming channel once drained.
func (l *RankListener) Close() error {
	l.mu.Lock()
	if l.closed.Swap(true) {
		l.mu.Unlock()
		return nil
	}
	err := l.ln.Close()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	go func() {
		l.wg.Wait()
		close(l.incoming)
	}()
	return err
}

func (l *RankListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed.Load() {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.readLoop(conn)
	}
}

// readBuffers recycles the connection readers' buffers: a simulation's
// connection lives for one trajectory, so an ensemble would otherwise leave
// one clientWriterSize buffer per simulation per rank behind for the
// collector. A reader is Reset on both ends of its life, so neither a dead
// connection nor its unread bytes outlive readLoop.
var readBuffers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, clientWriterSize) }}

func (l *RankListener) readLoop(conn net.Conn) {
	defer l.wg.Done()
	br := readBuffers.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		readBuffers.Put(br)
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	addr := conn.RemoteAddr().String()
	rd := protocol.NewReader(br)
	for {
		msg, err := rd.Next()
		if err != nil {
			// EOF on client disconnect, decode errors on corruption:
			// either way this connection is done; the launcher's
			// watchdog handles the consequences.
			return
		}
		if l.closed.Load() {
			return
		}
		l.incoming <- Envelope{Msg: msg, Addr: addr}
	}
}

// clientWriterSize is the per-rank send buffer and the size of the read
// buffer on the other end of the socket. One heat-equation TimeStep frame
// is a few KiB, so a back-logged socket hands over a handful of frames per
// read; frames larger than the buffer pass through bufio without copying,
// both ways.
const clientWriterSize = 1 << 15

// rankConn is one buffered connection to a server rank: the socket, its
// bufio writer, and a recycled frame-encoding scratch buffer, all guarded
// by one mutex so concurrent senders never interleave frames.
type rankConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	enc  []byte
}

// ClientConn is a client's fan-out to all server ranks. The paper's clients
// connect "to all the ranks of the server" and spread time steps across
// them round-robin (§3.2.2). Rank indices are positions in the original
// address list and never move: with an elastic server group the address
// list is the initial membership's listeners, a dead rank's position stays
// addressable (sends fail until Redial succeeds), and the round-robin data
// distribution stays aligned with the server's reception accounting.
type ClientConn struct {
	addrs []string
	ranks []rankConn
}

// Dial connects to every rank address. On failure it closes any partial
// connections and returns the error.
func Dial(addrs []string, timeout time.Duration) (*ClientConn, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: no rank addresses")
	}
	c := &ClientConn{addrs: append([]string(nil), addrs...), ranks: make([]rankConn, len(addrs))}
	for i, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: dial rank %d (%s): %w", i, addr, err)
		}
		c.ranks[i].conn = conn
		c.ranks[i].bw = bufio.NewWriterSize(conn, clientWriterSize)
	}
	return c, nil
}

// DialAvailable connects to every reachable rank address, leaving
// unreachable ranks down (their slots stay addressable and Redial can
// bring them up later), and returns the indices of the ranks it could not
// reach. It fails only when no rank is reachable. Reconnect-mode clients
// use it so a simulation launched while part of an elastic server group is
// dead or re-forming still joins the survivors instead of failing fast.
func DialAvailable(addrs []string, timeout time.Duration) (*ClientConn, []int, error) {
	if len(addrs) == 0 {
		return nil, nil, errors.New("transport: no rank addresses")
	}
	c := &ClientConn{addrs: append([]string(nil), addrs...), ranks: make([]rankConn, len(addrs))}
	var down []int
	for i, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			down = append(down, i)
			continue
		}
		c.ranks[i].conn = conn
		c.ranks[i].bw = bufio.NewWriterSize(conn, clientWriterSize)
	}
	if len(down) == len(addrs) {
		c.Close()
		return nil, nil, fmt.Errorf("transport: no server rank reachable (%d addresses)", len(addrs))
	}
	return c, down, nil
}

// MarkDown closes the rank's connection (if any) and leaves the slot
// empty; subsequent sends to the rank fail until Redial succeeds. Used by
// the client's reconnect policy after a send error.
func (c *ClientConn) MarkDown(rank int) {
	rc, err := c.rank(rank)
	if err != nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.conn != nil {
		rc.conn.Close()
		rc.conn = nil
	}
}

// Redial re-establishes the rank's connection to its original address.
// Frames buffered for the dead connection are discarded — the server's
// dedup log makes the re-sent stream idempotent.
func (c *ClientConn) Redial(rank int, timeout time.Duration) error {
	rc, err := c.rank(rank)
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", c.addrs[rank], timeout)
	if err != nil {
		return fmt.Errorf("transport: redial rank %d (%s): %w", rank, c.addrs[rank], err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.conn != nil {
		rc.conn.Close()
	}
	rc.conn = conn
	if rc.bw == nil {
		rc.bw = bufio.NewWriterSize(conn, clientWriterSize)
	} else {
		rc.bw.Reset(conn)
	}
	return nil
}

// Ranks returns the number of connected server ranks.
func (c *ClientConn) Ranks() int { return len(c.ranks) }

// rank validates and returns the rank's connection record.
func (c *ClientConn) rank(rank int) (*rankConn, error) {
	if rank < 0 || rank >= len(c.ranks) {
		return nil, fmt.Errorf("transport: rank %d out of range [0,%d)", rank, len(c.ranks))
	}
	return &c.ranks[rank], nil
}

// Send frames msg into the rank's write buffer and flushes it to the
// socket. Safe for concurrent use; writes to the same rank are serialized
// to keep frames intact.
func (c *ClientConn) Send(rank int, msg protocol.Message) error {
	rc, err := c.rank(rank)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.conn == nil {
		return fmt.Errorf("transport: rank %d connection closed", rank)
	}
	rc.enc = protocol.AppendEncode(rc.enc[:0], msg)
	if _, err := rc.bw.Write(rc.enc); err != nil {
		return err
	}
	return rc.bw.Flush()
}

// SendAll writes msg to every rank (Hello and Goodbye go to all ranks) and
// flushes each connection.
func (c *ClientConn) SendAll(msg protocol.Message) error {
	for rank := range c.ranks {
		if err := c.Send(rank, msg); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every rank connection.
func (c *ClientConn) Close() error {
	var first error
	for i := range c.ranks {
		rc := &c.ranks[i]
		rc.mu.Lock()
		if rc.conn != nil {
			if rc.bw != nil {
				if err := rc.bw.Flush(); err != nil && first == nil {
					first = err
				}
			}
			if err := rc.conn.Close(); err != nil && first == nil {
				first = err
			}
			rc.conn = nil
		}
		rc.mu.Unlock()
	}
	return first
}
