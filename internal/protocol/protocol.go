// Package protocol defines the wire messages exchanged between ensemble
// clients and the training server, and their binary framing. It is the Go
// analogue of the paper's ZMQ message layer (§3.1): a client announces
// itself (Hello), streams one TimeStep message per computed solver step,
// emits Heartbeats while computing, and closes with Goodbye
// ("finalize_communication … to signal the server that no more data will be
// sent").
//
// Framing: every message is [payload length u32 | type u8 | payload],
// little-endian throughout. Fields are float32 — the client casts from the
// solver's float64 before sending, performing the precision reduction in
// situ (§3.2.2). Float vectors are encoded and decoded with bulk 8-wide
// little-endian loops, not per-element calls, so the codec keeps up with
// the link.
//
// # Allocation discipline
//
// Reader is the decode path: it owns one recycled frame-body buffer and
// decodes TimeStep messages into leased payloads, so a server rank
// receiving thousands of messages per second performs zero steady-state
// allocations. (The allocating by-value decoder it replaced lives on in the
// package's tests as the reference the Reader is property-tested and
// fuzzed bit-identical against.)
//
// # Lease–recycle contract
//
// Reader.Next returns TimeStep messages as *TimeStep values leased from a
// package-global freelist; every other message type is returned by value.
// Ownership of a leased *TimeStep — the struct and its Input/Field backing
// arrays — transfers to the caller. The caller must hand it back with
// RecycleTimeStep exactly once, after the payload has been copied out of
// (e.g. into a training-buffer arena row) and never touched again; the
// freelist immediately reissues recycled payloads to subsequent Next calls,
// which overwrite them. Dropping a leased TimeStep without recycling is
// safe (the pool just re-allocates) but forfeits the zero-allocation
// property.
//
// Encoding follows the same discipline: AppendEncode frames a message into
// a caller-supplied buffer in one pass (no intermediate payload slice).
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"

	"melissa/internal/tensor"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Wire message types.
const (
	TypeHello MsgType = iota + 1
	TypeTimeStep
	TypeGoodbye
	TypeHeartbeat

	// Rank-to-rank collective frames (transport.Ring). They share the
	// client framing [length u32 | type u8 | payload] and its reader
	// (ReadFrame) but travel on the dedicated inter-rank ring connections,
	// never through the client message decoder: RingHello carries the
	// sender's rank during ring setup, RingFloats a raw little-endian
	// float32 chunk of a collective,
	// and RingPing a zero-payload link heartbeat that receivers silently
	// discard (it exists so a rank can tell a dead predecessor from a merely
	// idle one). Value 7 was a barrier token frame no program sent; it stays
	// reserved so the types after it keep their wire values, and a ring that
	// receives it treats it like any other unexpected type.
	TypeRingHello
	TypeRingFloats
	_
	TypeRingPing
)

// TypeRingFloats16 carries a collective chunk compressed to IEEE 754
// binary16 (EncodeF16s), 2 bytes per element instead of RingFloats' 4. It
// is numbered after the serving-tier types (serve.go ends at
// TypeReloadResult = 15) so existing wire values stay stable.
const TypeRingFloats16 MsgType = 16

// MaxFrameSize bounds a frame payload; larger frames indicate corruption.
const MaxFrameSize = 1 << 30

// Message is any protocol message.
type Message interface {
	Type() MsgType
	encodeTo(buf []byte) []byte
}

// Hello announces a client connection to one server rank.
type Hello struct {
	ClientID int32
	SimID    int32
	// Steps is the number of time steps the client intends to produce, so
	// the server can account for expected data (and size its per-sim
	// dedup bitsets up front).
	Steps int32
	// Restart counts how many times this client was restarted by the
	// launcher; greater than zero warns the server that duplicate time
	// steps may follow and must be discarded against its message log.
	Restart int32
}

// Type implements Message.
func (Hello) Type() MsgType { return TypeHello }

// TimeStep carries one solver time step: the simulation inputs and the
// flattened field, already reduced to float32 client-side. Instances
// produced by Reader.Next are leased (see the package comment); their
// payload slices are only valid until RecycleTimeStep.
type TimeStep struct {
	SimID int32
	Step  int32
	Input []float32
	Field []float32
}

// Type implements Message.
func (TimeStep) Type() MsgType { return TypeTimeStep }

// Goodbye signals that a client has produced all of its data.
type Goodbye struct {
	ClientID int32
	SimID    int32
}

// Type implements Message.
func (Goodbye) Type() MsgType { return TypeGoodbye }

// Heartbeat keeps the server's liveness watchdog fed during long solver
// steps.
type Heartbeat struct {
	ClientID int32
}

// Type implements Message.
func (Heartbeat) Type() MsgType { return TypeHeartbeat }

func (m Hello) encodeTo(buf []byte) []byte {
	buf = appendU32(buf, uint32(m.ClientID))
	buf = appendU32(buf, uint32(m.SimID))
	buf = appendU32(buf, uint32(m.Steps))
	buf = appendU32(buf, uint32(m.Restart))
	return buf
}

func (m TimeStep) encodeTo(buf []byte) []byte {
	buf = appendU32(buf, uint32(m.SimID))
	buf = appendU32(buf, uint32(m.Step))
	buf = appendF32s(buf, m.Input)
	buf = appendF32s(buf, m.Field)
	return buf
}

func (m Goodbye) encodeTo(buf []byte) []byte {
	buf = appendU32(buf, uint32(m.ClientID))
	buf = appendU32(buf, uint32(m.SimID))
	return buf
}

func (m Heartbeat) encodeTo(buf []byte) []byte {
	return appendU32(buf, uint32(m.ClientID))
}

// AppendEncode frames msg onto dst in a single pass — the frame header is
// reserved up front and patched once the payload length is known, so no
// intermediate payload buffer exists. It returns the extended slice.
// Appending to a recycled buffer makes steady-state encoding
// allocation-free.
func AppendEncode(dst []byte, msg Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(msg.Type()))
	dst = msg.encodeTo(dst)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Encode serializes msg into a self-contained fresh frame. Hot paths should
// prefer AppendEncode into a reused buffer.
func Encode(msg Message) []byte {
	return AppendEncode(nil, msg)
}

// timeStepFree recycles leased TimeStep payloads between Reader.Next and
// RecycleTimeStep. The capacity bounds retained memory; a recycle into a
// full freelist simply drops the payload.
var timeStepFree = make(chan *TimeStep, 1024)

// LeaseTimeStep returns a TimeStep from the freelist (or a fresh one). Its
// payload slices retain the capacity of their previous use.
func LeaseTimeStep() *TimeStep {
	select {
	case ts := <-timeStepFree:
		return ts
	default:
		return &TimeStep{}
	}
}

// RecycleTimeStep returns a leased TimeStep to the freelist. The caller
// must not touch ts or its payload slices afterwards; the next Next call
// may overwrite them. nil is ignored.
func RecycleTimeStep(ts *TimeStep) {
	if ts == nil {
		return
	}
	ts.SimID, ts.Step = 0, 0
	select {
	case timeStepFree <- ts:
	default:
	}
}

// Reader decodes a framed message stream with a recycled frame-body buffer
// and leased TimeStep payloads — the zero-allocation ingestion path. It is
// not safe for concurrent use; give each connection its own Reader.
type Reader struct {
	r    io.Reader
	hdr  [4]byte
	body []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next reads one framed message. TimeStep messages are returned as leased
// *TimeStep values the caller must RecycleTimeStep (see the package
// comment); all other types are returned by value. It returns io.EOF
// cleanly when the stream ends between frames.
func (rd *Reader) Next() (Message, error) {
	body, err := ReadFrame(rd.r, &rd.hdr, rd.body)
	if body != nil {
		rd.body = body[:0]
	}
	if err != nil {
		return nil, err
	}
	switch MsgType(body[0]) {
	case TypeTimeStep:
		ts := LeaseTimeStep()
		if err := decodeTimeStepInto(ts, body[1:]); err != nil {
			RecycleTimeStep(ts)
			return nil, err
		}
		return ts, nil
	case TypePredictRequest:
		m := LeasePredictRequest()
		if err := decodePredictRequestInto(m, body[1:]); err != nil {
			RecyclePredictRequest(m)
			return nil, err
		}
		return m, nil
	case TypePredictResponse:
		m := LeasePredictResponse()
		if err := decodePredictResponseInto(m, body[1:]); err != nil {
			RecyclePredictResponse(m)
			return nil, err
		}
		return m, nil
	}
	return decodeBody(body)
}

// ReadFrame reads one [length u32 | type u8 | payload] frame from r — a
// client connection and a rank ring link alike — and returns its body (the
// type byte, then the payload) in buf's storage, grown as needed; hdr is
// the caller's scratch for the length prefix. The length is checked against
// MaxFrameSize before any body byte is read, and a buffer that must grow is
// extended in 1 MiB chunks as the bytes arrive, so a lying length prefix
// costs at most one chunk beyond what is actually on the wire — never a
// gigabyte allocation up front. It returns io.EOF cleanly when the stream
// ends between frames; every other read error is wrapped with %w. Once the
// body is started the returned slice is non-nil, on error too, so the
// caller can keep grown storage.
func ReadFrame(r io.Reader, hdr *[4]byte, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("protocol: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return nil, fmt.Errorf("protocol: invalid frame size %d", n)
	}
	const maxStep = 1 << 20
	size := int(n)
	if cap(buf) >= size {
		buf = buf[:size]
		if _, err := io.ReadFull(r, buf); err != nil {
			return buf, fmt.Errorf("protocol: truncated frame body: %w", err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for len(buf) < size {
		off := len(buf)
		buf = append(buf, make([]byte, min(size-off, maxStep))...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return buf, fmt.Errorf("protocol: truncated frame body: %w", err)
		}
	}
	return buf, nil
}

// decodeTimeStepInto decodes a TimeStep payload into ts, reusing the
// capacity of its Input/Field slices.
func decodeTimeStepInto(ts *TimeStep, payload []byte) error {
	d := decoder{buf: payload}
	ts.SimID = int32(d.u32())
	ts.Step = int32(d.u32())
	ts.Input = d.f32sInto(ts.Input[:0])
	ts.Field = d.f32sInto(ts.Field[:0])
	return d.err
}

// decodeBody decodes the by-value message types; Reader.Next has already
// taken the pooled ones (TimeStep, PredictRequest, PredictResponse).
func decodeBody(body []byte) (Message, error) {
	typ := MsgType(body[0])
	d := decoder{buf: body[1:]}
	switch typ {
	case TypeHello:
		m := Hello{
			ClientID: int32(d.u32()),
			SimID:    int32(d.u32()),
			Steps:    int32(d.u32()),
			Restart:  int32(d.u32()),
		}
		return m, d.err
	case TypeGoodbye:
		m := Goodbye{ClientID: int32(d.u32()), SimID: int32(d.u32())}
		return m, d.err
	case TypeHeartbeat:
		m := Heartbeat{ClientID: int32(d.u32())}
		return m, d.err
	default:
		return decodeServeBody(typ, &d)
	}
}

func errUnknownType(typ MsgType) error {
	return fmt.Errorf("protocol: unknown message type %d", typ)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = fmt.Errorf("protocol: short payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// optU32 decodes an optional trailing u32 extension field: absent (fewer
// than 4 bytes left, including the old frame layouts that end exactly
// here) decodes as 0 without consuming anything or erroring. This is the
// wire-compatibility hook for fields added to a message after its first
// release — see PredictRequest.DeadlineMs.
func (d *decoder) optU32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		return 0
	}
	return d.u32()
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("protocol: short payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// maxWireString bounds string fields (problem names, checkpoint paths,
// error messages); longer prefixes indicate corruption.
const maxWireString = 1 << 16

// str decodes a length-prefixed string.
func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxWireString {
		d.err = fmt.Errorf("protocol: unreasonable string length %d", n)
		return ""
	}
	if uint64(len(d.buf)) < uint64(n) {
		d.err = fmt.Errorf("protocol: short string payload (%d bytes, %d left)", n, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// f32sInto decodes a length-prefixed float vector into dst's storage,
// growing it only when capacity is insufficient.
func (d *decoder) f32sInto(dst []float32) []float32 {
	n, ok := d.f32sHeader()
	if !ok {
		return dst
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	} else {
		dst = dst[:n]
	}
	DecodeF32s(dst, d.buf[:4*n])
	d.buf = d.buf[4*n:]
	return dst
}

// f32sHeader reads and bounds-checks the float-count prefix.
func (d *decoder) f32sHeader() (int, bool) {
	n := d.u32()
	if d.err != nil {
		return 0, false
	}
	if uint64(len(d.buf)) < uint64(n)*4 {
		d.err = fmt.Errorf("protocol: short float payload (%d floats, %d bytes left)", n, len(d.buf))
		return 0, false
	}
	return int(n), true
}

// EncodeF32s serializes vals into dst as little-endian float32 bits; dst
// must hold at least 4·len(vals) bytes. Every float on the wire — client
// messages, the rank-to-rank collective ring, optimizer checkpoints — moves
// through this pair, which is tensor's vectorized little-endian copy.
func EncodeF32s(dst []byte, vals []float32) {
	tensor.PutF32LE(dst, vals)
}

// DecodeF32s is the decode mirror of EncodeF32s: it fills dst from
// 4·len(dst) bytes of src.
func DecodeF32s(dst []float32, src []byte) {
	tensor.GetF32LE(dst, src)
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendF32s(buf []byte, vals []float32) []byte {
	buf = appendU32(buf, uint32(len(vals)))
	off := len(buf)
	need := 4 * len(vals)
	if cap(buf)-off < need {
		grown := make([]byte, off, roundupCap(off+need))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+need]
	EncodeF32s(buf[off:], vals)
	return buf
}

// roundupCap picks the next power-of-two capacity so repeated appends into
// a growing buffer settle quickly.
func roundupCap(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}
