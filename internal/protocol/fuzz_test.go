package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeBody fuzzes the frame-body decoder (the bytes after the length
// prefix, type byte included): arbitrary input must either decode or
// error — never panic, and never read past the payload. Valid TimeStep
// bodies must additionally decode bit-identically through the pooled path.
func FuzzDecodeBody(f *testing.F) {
	f.Add(Encode(Hello{ClientID: 1, SimID: 2, Steps: 3, Restart: 4})[4:])
	f.Add(Encode(TimeStep{SimID: 1, Step: 2, Input: []float32{1, 2}, Field: []float32{3, 4, 5}})[4:])
	f.Add(Encode(Goodbye{ClientID: 1, SimID: 2})[4:])
	f.Add(Encode(Heartbeat{ClientID: 9})[4:])
	f.Add([]byte{byte(TypeTimeStep), 1, 0, 0, 0})                                     // truncated header fields
	f.Add([]byte{byte(TypeTimeStep), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // huge float count
	f.Add([]byte{99})                                                                 // unknown type
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // Read/Next reject zero-size frames before decodeBodyRef
		}
		if len(body) > MaxFrameSize {
			return
		}
		msg, err := decodeBodyRef(append([]byte(nil), body...))
		if err != nil {
			// Errors must be deterministic: the same body through the
			// framed Reader must also error.
			if _, rerr := NewReader(bytes.NewReader(frameOf(body))).Next(); rerr == nil {
				t.Fatalf("decodeBodyRef rejected body but Reader accepted it")
			}
			return
		}
		// A successfully decoded message must re-encode and re-decode to
		// the same value (encode is not required to be byte-identical to
		// arbitrary input, since trailing garbage is tolerated by decode).
		reframed := AppendEncode(nil, msg)
		back, err := NewReader(bytes.NewReader(reframed)).Next()
		if err != nil {
			t.Fatalf("re-decode of valid message failed: %v", err)
		}
		if ts, ok := msg.(TimeStep); ok {
			pooled, ok := back.(*TimeStep)
			if !ok {
				t.Fatalf("pooled decode returned %T", back)
			}
			if pooled.SimID != ts.SimID || pooled.Step != ts.Step ||
				!bitsEqual(pooled.Input, ts.Input) || !bitsEqual(pooled.Field, ts.Field) {
				t.Fatalf("pooled decode diverged from legacy decode")
			}
			RecycleTimeStep(pooled)
		}
	})
}

// FuzzReaderStream fuzzes the full framed stream path: arbitrary bytes fed
// to Reader.Next must never panic or over-read; at most they error.
func FuzzReaderStream(f *testing.F) {
	f.Add(Encode(TimeStep{SimID: 1, Step: 2, Input: []float32{1}, Field: []float32{2}}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		rd := NewReader(bytes.NewReader(stream))
		for i := 0; i < 64; i++ {
			msg, err := rd.Next()
			if err != nil {
				return
			}
			if ts, ok := msg.(*TimeStep); ok {
				RecycleTimeStep(ts)
			}
		}
	})
}

func frameOf(body []byte) []byte {
	frame := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	return frame
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
