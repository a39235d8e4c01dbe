package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"testing"

	"melissa/internal/protocol"
)

// readChunk is protocol.ReadFrame's growth step: how far a frame body may
// grow ahead of the bytes actually received.
const readChunk = 1 << 20

// byteConn is a net.Conn whose read side replays a fixed byte stream —
// the harness for feeding readFrame arbitrary wire bytes without sockets.
// Reads return io.EOF once the stream is exhausted; writes are discarded.
type byteConn struct {
	r *bytes.Reader
}

func newByteConn(data []byte) *byteConn { return &byteConn{r: bytes.NewReader(data)} }

func (c *byteConn) Read(b []byte) (int, error)         { return c.r.Read(b) }
func (c *byteConn) Write(b []byte) (int, error)        { return len(b), nil }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

// frameReaderOver builds a receive-only Ring over a canned byte stream.
func frameReaderOver(data []byte) *Ring {
	r := &Ring{
		rank:      0,
		size:      2,
		prev:      newByteConn(data),
		ioTimeout: time.Second,
	}
	r.rd = &ringReader{
		conn:    r.prev,
		timeout: r.ioTimeout,
		count:   &r.wireRecv,
		buf:     make([]byte, ringRecvBufSize),
	}
	return r
}

// ringFrame encodes one [length | type | payload] wire frame.
func ringFrame(typ protocol.MsgType, payload []byte) []byte {
	buf := make([]byte, ringHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = byte(typ)
	copy(buf[ringHeaderLen:], payload)
	return buf
}

// retiredTokenType is the wire value of the barrier-token frame no program
// sends any more (protocol reserves it): to a ring it is one more
// unexpected frame type.
const retiredTokenType protocol.MsgType = 7

func TestRingFrameRoundTrip(t *testing.T) {
	vals := []float32{1.5, -2.25, 3.75}
	payload := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(v))
	}
	stream := append(ringFrame(protocol.TypeRingPing, nil), ringFrame(protocol.TypeRingFloats, payload)...)
	stream = append(stream, ringFrame(retiredTokenType, nil)...)

	r := frameReaderOver(stream)
	dst := make([]float32, len(vals))
	if err := r.RecvFloats(dst, false, false); err != nil { // the leading ping is skipped
		t.Fatal(err)
	}
	for i, v := range vals {
		if dst[i] != v {
			t.Fatalf("float %d: got %v want %v", i, dst[i], v)
		}
	}
	if err := r.RecvFloats(dst[:0], false, false); !errors.Is(err, ErrLinkDead) {
		t.Fatalf("token-typed frame: got %v, want ErrLinkDead", err)
	}
	if err := r.RecvFloats(dst, false, false); !errors.Is(err, ErrLinkDead) {
		t.Fatalf("EOF after stream end: got %v, want ErrLinkDead", err)
	}
}

func TestRingFrameMalformed(t *testing.T) {
	oversized := make([]byte, ringHeaderLen)
	binary.LittleEndian.PutUint32(oversized, uint32(protocol.MaxFrameSize+1))
	oversized[4] = byte(protocol.TypeRingFloats)

	zeroSize := make([]byte, ringHeaderLen)
	zeroSize[4] = byte(protocol.TypeRingFloats)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", []byte{5, 0}},
		{"zero size", zeroSize},
		{"oversized", oversized},
		{"truncated payload", ringFrame(protocol.TypeRingFloats, make([]byte, 64))[:ringHeaderLen+10]},
		{"ping with payload", ringFrame(protocol.TypeRingPing, []byte{1, 2, 3})},
		{"garbage", []byte("this is not a ring frame at all, not even close......")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := frameReaderOver(tc.data)
			if _, _, err := r.readFrame(); !errors.Is(err, ErrLinkDead) {
				t.Fatalf("readFrame(%q) err = %v, want ErrLinkDead", tc.data, err)
			}
		})
	}
}

// TestRingFrameLyingLengthBounded pins the anti-DoS property: a header
// claiming a huge payload with few bytes behind it must error without the
// receiver allocating anywhere near the claimed size up front.
func TestRingFrameLyingLengthBounded(t *testing.T) {
	lying := make([]byte, ringHeaderLen, ringHeaderLen+16)
	binary.LittleEndian.PutUint32(lying, uint32(512<<20)) // claims 512 MiB
	lying[4] = byte(protocol.TypeRingFloats)
	lying = append(lying, make([]byte, 16)...) // only 16 bytes follow

	r := frameReaderOver(lying)
	if _, _, err := r.readFrame(); !errors.Is(err, ErrLinkDead) {
		t.Fatalf("lying length: err = %v, want ErrLinkDead", err)
	}
	if cap(r.recvBuf) > 2*readChunk {
		t.Fatalf("receive buffer grew to %d for a lying prefix; chunked reads should bound it near %d", cap(r.recvBuf), readChunk)
	}
}

// FuzzRingFrame throws arbitrary bytes at the ring frame reader: it must
// return frames or ErrLinkDead-wrapped errors, never panic, never yield a
// payload beyond the protocol bound, and never allocate far beyond the
// bytes actually present (a lying length prefix is chunk-bounded).
func FuzzRingFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(ringFrame(retiredTokenType, nil))
	f.Add(ringFrame(protocol.TypeRingFloats, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(append(ringFrame(protocol.TypeRingPing, nil), ringFrame(retiredTokenType, nil)...))
	f.Add(ringFrame(protocol.TypeRingFloats, make([]byte, 64))[:ringHeaderLen+10])
	lying := make([]byte, ringHeaderLen)
	binary.LittleEndian.PutUint32(lying, uint32(protocol.MaxFrameSize))
	lying[4] = byte(protocol.TypeRingFloats)
	f.Add(lying)
	f.Add([]byte("garbage garbage garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := frameReaderOver(data)
		for {
			typ, payload, err := r.readFrame()
			if err != nil {
				if !errors.Is(err, ErrLinkDead) {
					t.Fatalf("non-link error from readFrame: %v", err)
				}
				break
			}
			if typ == protocol.TypeRingPing {
				t.Fatal("readFrame surfaced a ping frame")
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
			}
		}
		if cap(r.recvBuf) > len(data)+2*readChunk {
			t.Fatalf("receive buffer %d for %d input bytes", cap(r.recvBuf), len(data))
		}
		// A typed receive over the same stream, on either codec: any frame
		// but the one it wants — the retired token type and the other
		// codec's frame included — ends the link.
		for _, f16 := range []bool{false, true} {
			r = frameReaderOver(data)
			for dst := make([]float32, 2); ; {
				if err := r.RecvFloats(dst, false, f16); err != nil {
					if !errors.Is(err, ErrLinkDead) {
						t.Fatalf("non-link error from RecvFloats(f16=%v): %v", f16, err)
					}
					break
				}
			}
		}
	})
}

// TestChaosDeterministicStreams pins replayability: two Chaos values with
// the same seed and connection label make identical drop decisions, and a
// different label yields an independent stream.
func TestChaosDeterministicStreams(t *testing.T) {
	pattern := func(seed uint64, label string) []bool {
		var sink countConn
		conn := NewChaos(ChaosConfig{Seed: seed, DropRate: 0.5}).WrapLabeled(label, &sink)
		out := make([]bool, 200)
		for i := range out {
			before := sink.writes
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			out[i] = sink.writes > before // true when the write got through
		}
		return out
	}
	a := pattern(7, "link")
	b := pattern(7, "link")
	c := pattern(7, "other")
	if !equalBools(a, b) {
		t.Fatal("same seed+label produced different drop patterns")
	}
	if equalBools(a, c) {
		t.Fatal("different labels produced identical drop patterns")
	}
}

// countConn counts writes that reach the underlying connection.
type countConn struct {
	byteConn
	writes int
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes++
	return len(b), nil
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRingIdentityMismatch: ring formation must fail loudly when the two
// ends of a link were launched with different topology identities (e.g.
// mismatched -ranks), instead of forming a ring that desynchronizes
// mid-collective.
func TestRingIdentityMismatch(t *testing.T) {
	l0, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr(), l1.Addr()}
	identities := []uint32{1, 2} // rank 0 thinks local=1, rank 1 thinks local=2
	rings := make([]*Ring, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, l := range []*RingListener{l0, l1} {
		wg.Add(1)
		go func(rank int, l *RingListener) {
			defer wg.Done()
			rings[rank], errs[rank] = l.ConnectContext(context.Background(), rank, addrs,
				3*time.Second, RingOptions{Identity: identities[rank]})
		}(r, l)
	}
	wg.Wait()
	for r := range rings {
		if rings[r] != nil {
			rings[r].Close()
		}
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched identities formed a ring")
	}
	for r, err := range errs {
		if err != nil && !strings.Contains(err.Error(), "identity") {
			t.Fatalf("rank %d failed with %v, want an identity mismatch error", r, err)
		}
	}
}

// TestRingFloats16RoundTrip exercises the compressed frame path over a
// canned stream: a RingFloats16 frame decodes to the quantized values, the
// fused add receive accumulates instead of overwriting, and a
// full-width frame arriving where a compressed one is expected (codec
// desync) kills the link.
func TestRingFloats16RoundTrip(t *testing.T) {
	vals := []float32{1.5, -2.25, 3.75, 0.1}
	payload := make([]byte, 2*len(vals))
	protocol.EncodeF16s(payload, vals)
	stream := append(ringFrame(protocol.TypeRingFloats16, payload), ringFrame(protocol.TypeRingFloats16, payload)...)
	stream = append(stream, ringFrame(protocol.TypeRingFloats, make([]byte, 4*len(vals)))...)

	r := frameReaderOver(stream)
	dst := make([]float32, len(vals))
	if err := r.RecvFloats(dst, false, true); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := protocol.RoundF16(v); dst[i] != want {
			t.Fatalf("float %d: got %v want %v", i, dst[i], want)
		}
	}
	if err := r.RecvFloats(dst, true, true); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := protocol.RoundF16(v) * 2; dst[i] != want {
			t.Fatalf("accumulated float %d: got %v want %v", i, dst[i], want)
		}
	}
	if err := r.RecvFloats(dst, false, true); !errors.Is(err, ErrLinkDead) {
		t.Fatalf("full-width frame on a compressed receive: got %v, want ErrLinkDead", err)
	}
}

// TestRingCodecMismatch: ring formation must fail loudly when the two ends
// of a link were launched with different wire codecs (e.g. mismatched
// -grad-compress), instead of forming a ring whose ranks would train
// different trajectories.
func TestRingCodecMismatch(t *testing.T) {
	l0, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr(), l1.Addr()}
	codecs := []Codec{CodecF32, CodecF16}
	rings := make([]*Ring, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, l := range []*RingListener{l0, l1} {
		wg.Add(1)
		go func(rank int, l *RingListener) {
			defer wg.Done()
			rings[rank], errs[rank] = l.ConnectContext(context.Background(), rank, addrs,
				3*time.Second, RingOptions{Codec: codecs[rank]})
		}(r, l)
	}
	wg.Wait()
	for r := range rings {
		if rings[r] != nil {
			rings[r].Close()
		}
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched codecs formed a ring")
	}
	for r, err := range errs {
		if err != nil && !strings.Contains(err.Error(), "codec") {
			t.Fatalf("rank %d failed with %v, want a codec mismatch error", r, err)
		}
	}
}

// TestChaosF16Ring drives a compressed 2-rank ring through the chaos layer
// with heavy deterministic frame drops: the ranks must fail with a link
// error (starved read deadline) rather than wedge or panic — the same
// failure contract the full-width path honors, which is what lets the
// elastic runtime treat compressed rings identically during re-formation.
func TestChaosF16Ring(t *testing.T) {
	chaos := NewChaos(ChaosConfig{Seed: 42, DropRate: 0.3})
	l0, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr(), l1.Addr()}
	opts := RingOptions{
		Codec:             CodecF16,
		IOTimeout:         300 * time.Millisecond,
		HeartbeatInterval: -1, // only data keeps the link alive
		Wrap:              chaos.Wrap,
	}
	rings := make([]*Ring, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, l := range []*RingListener{l0, l1} {
		wg.Add(1)
		go func(rank int, l *RingListener) {
			defer wg.Done()
			rings[rank], errs[rank] = l.ConnectContext(context.Background(), rank, addrs, 5*time.Second, opts)
		}(r, l)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d formation: %v", r, err)
		}
	}
	defer rings[0].Close()
	defer rings[1].Close()

	// Pump compressed frames until the drops starve a receiver. Every
	// rank must observe a link error within a bounded number of rounds.
	pump := func(r *Ring) error {
		vals := make([]float32, 256)
		for i := 0; i < 10000; i++ {
			if err := r.SendFloats(vals, true); err != nil {
				return err
			}
			if err := r.RecvFloats(vals, false, true); err != nil {
				return err
			}
		}
		return nil
	}
	for r := range rings {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = pump(rings[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d survived 10000 rounds at 30%% frame drop", r)
		}
		if !errors.Is(err, ErrLinkDead) {
			t.Fatalf("rank %d failed with %v, want ErrLinkDead", r, err)
		}
	}
}
