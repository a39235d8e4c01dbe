package protocol

import (
	"io"
	"math"
)

// The allocating frame codec: one fresh frame body and fresh payload slices
// per message, every type decoded by value. Nothing outside the tests calls
// it any more; it stays as the differential reference the pooled Reader and
// the fuzzers are compared against.

// Write frames and writes msg to w in one w.Write call.
func Write(w io.Writer, msg Message) error {
	_, err := w.Write(Encode(msg))
	return err
}

// Read reads one framed message from r. It returns io.EOF cleanly when the
// stream ends between frames.
func Read(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	body, err := ReadFrame(r, &lenBuf, nil)
	if err != nil {
		return nil, err
	}
	return decodeBodyRef(body)
}

// decodeBodyRef decodes a frame body of any type by value.
func decodeBodyRef(body []byte) (Message, error) {
	d := decoder{buf: body[1:]}
	switch MsgType(body[0]) {
	case TypeTimeStep:
		m := TimeStep{SimID: int32(d.u32()), Step: int32(d.u32())}
		m.Input = d.f32s()
		m.Field = d.f32s()
		return m, d.err
	case TypePredictRequest:
		m := PredictRequest{ID: d.u64(), T: math.Float32frombits(d.u32())}
		m.Params = d.f32s()
		m.DeadlineMs = d.optU32()
		return m, d.err
	case TypePredictResponse:
		m := PredictResponse{ID: d.u64(), Epoch: d.u32()}
		m.Field = d.f32s()
		return m, d.err
	}
	return decodeBody(body)
}

// f32s decodes a length-prefixed float vector into a fresh slice.
func (d *decoder) f32s() []float32 {
	n, ok := d.f32sHeader()
	if !ok {
		return nil
	}
	out := make([]float32, n)
	DecodeF32s(out, d.buf[:4*n])
	d.buf = d.buf[4*n:]
	return out
}
