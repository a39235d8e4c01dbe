package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"melissa/internal/ddp"
	"melissa/internal/protocol"
)

// Sentinel errors for typed server rejections. Match with errors.Is; an
// overloaded rejection also carries a retry-after hint via OverloadedError
// (errors.As).
var (
	// ErrOverloaded: the server shed the request (admit queue full, or the
	// server is draining for shutdown). The request was never computed —
	// safe to retry after backing off.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrDeadlineExceeded: the request's deadline budget elapsed before the
	// server computed it (or the server rejected it as already expired).
	// Retrying is pointless — the caller's budget is spent.
	ErrDeadlineExceeded = errors.New("client: predict deadline exceeded")
)

// OverloadedError is the typed rejection behind ErrOverloaded. It
// implements net.Error with Timeout() true, so ddp.Retry treats it as a
// transient fault: it backs off and retries.
type OverloadedError struct {
	// RetryAfter is the server's hint for when queue capacity should free
	// up (zero if it offered none).
	RetryAfter time.Duration
	// Draining: the rejection came from a server in graceful shutdown —
	// retrying against the same address only helps once it restarts.
	Draining bool
}

func (e *OverloadedError) Error() string {
	what := "server overloaded"
	if e.Draining {
		what = "server draining"
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("client: %s (retry after %v)", what, e.RetryAfter)
	}
	return "client: " + what
}

func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }
func (e *OverloadedError) Timeout() bool        { return true }
func (e *OverloadedError) Temporary() bool      { return true }

// transientIOError marks a broken-stream fault as retryable: the
// connection is torn down and redialed on the next attempt, so for an
// opted-in retry policy the failure really is transient. Implementing
// net.Error with Timeout() true makes ddp.Retry treat it as transient.
type transientIOError struct{ err error }

func (e *transientIOError) Error() string   { return e.err.Error() }
func (e *transientIOError) Unwrap() error   { return e.err }
func (e *transientIOError) Timeout() bool   { return true }
func (e *transientIOError) Temporary() bool { return true }

// PredictOptions tunes a PredictConn's robustness behavior. The zero value
// reproduces the bare client: no deadlines, no retry.
type PredictOptions struct {
	// DialTimeout bounds connection establishment (and each reconnect when
	// retry is enabled). 0 dials without a deadline.
	DialTimeout time.Duration
	// CallTimeout bounds each request's full round trip with a socket
	// deadline, and is forwarded to the server as the request's DeadlineMs
	// budget — so a query this client has already given up on is shed
	// server-side instead of computed. 0 means no per-call deadline.
	CallTimeout time.Duration
	// RetryAttempts > 1 opts into automatic retry with ddp.Retry's
	// exponential backoff: overloaded rejections and transient I/O faults
	// (timeouts, resets, refused reconnects) are retried, redialing the
	// connection after an I/O fault. Protocol rejections — malformed
	// query, expired deadline — fail fast. <= 1 disables retry.
	RetryAttempts int
	// RetryBackoff is the base backoff between attempts (ddp.Retry's
	// default when zero).
	RetryBackoff time.Duration
	// Dial overrides the transport used to (re)connect — chaos tests wrap
	// the socket with a fault injector here. Nil dials plain TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// PredictConn is a live connection to a melissa-serve instance: the query
// side of the serving tier, mirroring how API is the ingestion side. It is
// a synchronous request/response client — one outstanding request at a
// time, not safe for concurrent use; open one PredictConn per querying
// goroutine (the server micro-batches across connections, so concurrency
// comes from many connections, not pipelining on one).
type PredictConn struct {
	addr string
	opts PredictOptions
	nc   net.Conn
	rd   *protocol.Reader
	buf  []byte                  // reusable encode scratch
	req  protocol.PredictRequest // persistent request header: encoding
	// through a pointer keeps the per-request interface boxing off the heap
	id uint64
}

// DialPredict connects to a melissa-serve address. A zero timeout dials
// without a deadline.
func DialPredict(addr string, timeout time.Duration) (*PredictConn, error) {
	return DialPredictOpts(addr, PredictOptions{DialTimeout: timeout})
}

// DialPredictOpts connects to a melissa-serve address with per-call
// deadlines and an optional retry/reconnect policy.
func DialPredictOpts(addr string, opts PredictOptions) (*PredictConn, error) {
	c := &PredictConn{addr: addr, opts: opts}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// redial (re-)establishes the connection, dropping any previous socket.
func (c *PredictConn) redial() error {
	c.teardown()
	dial := c.opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial predict %s: %w", c.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // single-frame requests must not wait for Nagle
	}
	c.nc = nc
	c.rd = protocol.NewReader(bufio.NewReaderSize(nc, 1<<15))
	return nil
}

// teardown drops the socket after an I/O fault: once a send or receive
// fails mid-call the stream state is unknown, so the only safe recovery is
// a fresh connection.
func (c *PredictConn) teardown() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.rd = nil, nil
	}
}

// live ensures there is a usable connection, redialing if the previous one
// was torn down by a fault or Close.
func (c *PredictConn) live() error {
	if c.nc != nil {
		return nil
	}
	return c.redial()
}

// arm applies the per-call socket deadline, if one is configured.
func (c *PredictConn) arm() {
	if to := c.opts.CallTimeout; to > 0 {
		c.nc.SetDeadline(time.Now().Add(to))
	}
}

// Close says Goodbye and tears the connection down. The Goodbye write gets
// a short deadline; a failure to send it is reported, not dropped.
func (c *PredictConn) Close() error {
	if c.nc == nil {
		return nil
	}
	c.nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	sendErr := c.send(protocol.Goodbye{})
	closeErr := c.nc.Close()
	c.nc, c.rd = nil, nil
	return errors.Join(sendErr, closeErr)
}

func (c *PredictConn) send(msg protocol.Message) error {
	c.buf = protocol.AppendEncode(c.buf[:0], msg)
	_, err := c.nc.Write(c.buf)
	return err
}

// deadlineMs converts a call budget to the request's wire field, clamped
// to at least 1ms (0 on the wire means "no deadline").
func deadlineMs(d time.Duration) uint32 {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	return uint32(ms)
}

// Predict asks the server for the field at (params, t). The returned slice
// is freshly allocated; use PredictInto on hot paths.
func (c *PredictConn) Predict(params []float32, t float32) ([]float32, uint32, error) {
	return c.PredictInto(nil, params, t)
}

// PredictInto is Predict with a caller-supplied destination, grown as
// needed and returned along with the checkpoint epoch that computed the
// answer. With sufficient capacity the steady-state round trip performs no
// heap allocations on either end of the wire.
//
// With PredictOptions.RetryAttempts > 1, overloaded rejections and
// transient I/O faults are retried under ddp.Retry's backoff (reconnecting
// after an I/O fault); errors.Is(err, ErrOverloaded) and errors.Is(err,
// ErrDeadlineExceeded) identify the typed rejections either way.
func (c *PredictConn) PredictInto(dst []float32, params []float32, t float32) ([]float32, uint32, error) {
	if c.opts.RetryAttempts <= 1 {
		return c.predictOnce(dst, params, t)
	}
	var epoch uint32
	err := ddp.Retry(context.Background(), c.opts.RetryAttempts, c.opts.RetryBackoff, func() error {
		var attemptErr error
		dst, epoch, attemptErr = c.predictOnce(dst, params, t)
		return attemptErr
	})
	return dst, epoch, err
}

// predictOnce runs one request/response exchange on the live connection.
// Server rejections come back typed and leave the connection usable; I/O
// faults tear the connection down (the next call redials) and are wrapped
// as transient so a retry policy reconnects through them.
func (c *PredictConn) predictOnce(dst []float32, params []float32, t float32) ([]float32, uint32, error) {
	if err := c.live(); err != nil {
		return dst, 0, err
	}
	c.arm()
	c.id++
	c.req.ID, c.req.T, c.req.Params = c.id, t, params
	if to := c.opts.CallTimeout; to > 0 {
		c.req.DeadlineMs = deadlineMs(to)
	} else {
		c.req.DeadlineMs = 0
	}
	err := c.send(&c.req)
	c.req.Params = nil // don't pin the caller's slice past the call
	if err != nil {
		c.teardown()
		return dst, 0, &transientIOError{fmt.Errorf("client: predict send: %w", err)}
	}
	for {
		msg, err := c.rd.Next()
		if err != nil {
			c.teardown()
			return dst, 0, &transientIOError{fmt.Errorf("client: predict response: %w", err)}
		}
		switch m := msg.(type) {
		case *protocol.PredictResponse:
			if m.ID != c.req.ID {
				protocol.RecyclePredictResponse(m) // stale (e.g. answer outliving a shed retry)
				continue
			}
			if cap(dst) < len(m.Field) {
				dst = make([]float32, len(m.Field))
			}
			dst = dst[:len(m.Field)]
			copy(dst, m.Field)
			epoch := m.Epoch
			protocol.RecyclePredictResponse(m)
			return dst, epoch, nil
		case protocol.PredictError:
			if m.ID != 0 && m.ID != c.req.ID {
				continue // rejection for an abandoned earlier request
			}
			return dst, 0, rejectionError(m)
		default:
			return dst, 0, fmt.Errorf("client: unexpected %T while awaiting prediction", msg)
		}
	}
}

// rejectionError maps a wire PredictError to the client's typed errors.
func rejectionError(m protocol.PredictError) error {
	switch m.Code {
	case protocol.PredictErrOverloaded:
		return &OverloadedError{RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond}
	case protocol.PredictErrDraining:
		return &OverloadedError{RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond, Draining: true}
	case protocol.PredictErrExpired:
		return fmt.Errorf("%w (server: %s)", ErrDeadlineExceeded, m.Msg)
	default:
		return fmt.Errorf("client: predict rejected: %s", m.Msg)
	}
}

// Info asks the server to describe its loaded model — including, since the
// overload-safety extension, its pressure counters (queue depth, shed and
// expired totals, slow-client disconnects, draining flag).
func (c *PredictConn) Info() (protocol.ServeInfo, error) {
	if err := c.live(); err != nil {
		return protocol.ServeInfo{}, err
	}
	c.arm()
	if err := c.send(protocol.ServeInfoRequest{}); err != nil {
		c.teardown()
		return protocol.ServeInfo{}, err
	}
	msg, err := c.rd.Next()
	if err != nil {
		c.teardown()
		return protocol.ServeInfo{}, err
	}
	info, ok := msg.(protocol.ServeInfo)
	if !ok {
		return protocol.ServeInfo{}, fmt.Errorf("client: unexpected %T while awaiting server info", msg)
	}
	return info, nil
}

// Reload asks the server to hot-reload its checkpoint (empty path = the
// server's configured path; otherwise a file in that checkpoint's directory
// — the server refuses any other) and returns the epoch now serving.
func (c *PredictConn) Reload(path string) (uint32, error) {
	if err := c.live(); err != nil {
		return 0, err
	}
	c.arm()
	if err := c.send(protocol.Reload{Path: path}); err != nil {
		c.teardown()
		return 0, err
	}
	msg, err := c.rd.Next()
	if err != nil {
		c.teardown()
		return 0, err
	}
	res, ok := msg.(protocol.ReloadResult)
	if !ok {
		return 0, fmt.Errorf("client: unexpected %T while awaiting reload result", msg)
	}
	if res.Msg != "" {
		return res.Epoch, fmt.Errorf("client: reload failed: %s", res.Msg)
	}
	return res.Epoch, nil
}

// PredictRemote is the one-shot convenience: dial, query, close. For more
// than one query, hold a PredictConn. The one-shot path carries
// conservative default deadlines (10s dial, 30s call) so it can never hang
// on a wedged server.
func PredictRemote(addr string, params []float32, t float32) ([]float32, error) {
	c, err := DialPredictOpts(addr, PredictOptions{
		DialTimeout: 10 * time.Second,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	field, _, err := c.Predict(params, t)
	return field, err
}
