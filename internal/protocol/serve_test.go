package protocol

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestServeFramesRoundTrip pins the wire format of every serving message:
// encode → legacy decode must reproduce the value, and AppendEncode must be
// byte-identical to Encode.
func TestServeFramesRoundTrip(t *testing.T) {
	msgs := []Message{
		PredictRequest{ID: 7, T: 0.25, Params: []float32{1, -2, 3.5}},
		PredictRequest{ID: 0, T: float32(math.Inf(1))},
		PredictRequest{ID: 9, T: 1, Params: []float32{4, 5}, DeadlineMs: 250},
		PredictResponse{ID: 7, Epoch: 3, Field: []float32{9, 8, 7, 6}},
		PredictResponse{ID: 1 << 60, Epoch: 0},
		PredictError{ID: 5, Msg: "wrong parameter count"},
		PredictError{ID: 6, Msg: "overloaded", Code: PredictErrOverloaded, RetryAfterMs: 12},
		PredictError{ID: 8, Msg: "deadline exceeded", Code: PredictErrExpired},
		ServeInfoRequest{},
		ServeInfo{Problem: "heat", ParamDim: 5, OutputDim: 256, Epoch: 2},
		ServeInfo{Problem: "heat", ParamDim: 5, OutputDim: 256, Epoch: 2,
			Queue: 7, QueueCap: 64, Shed: 19, Expired: 3, SlowClients: 1, Draining: 1},
		Reload{Path: "/tmp/surrogate.mlsg"},
		Reload{},
		ReloadResult{Epoch: 4},
		ReloadResult{Epoch: 4, Msg: "open: no such file"},
	}
	for _, m := range msgs {
		frame := Encode(m)
		if appended := AppendEncode(nil, m); !bytes.Equal(appended, frame) {
			t.Fatalf("%T: AppendEncode differs from Encode", m)
		}
		got, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(normalizeEmptySlices(got), normalizeEmptySlices(m)) {
			t.Fatalf("%T: round trip %+v != %+v", m, got, m)
		}
	}
}

// normalizeEmptySlices maps empty payload slices to nil so DeepEqual treats
// a decoded zero-length vector ([]float32{}) like an unset one.
func normalizeEmptySlices(m Message) Message {
	switch v := m.(type) {
	case PredictRequest:
		if len(v.Params) == 0 {
			v.Params = nil
		}
		return v
	case PredictResponse:
		if len(v.Field) == 0 {
			v.Field = nil
		}
		return v
	}
	return m
}

// oldFrame frames a hand-built pre-extension payload (no trailing
// DeadlineMs / Code / pressure fields), exactly as a binary built before
// those fields existed would have encoded it.
func oldFrame(typ MsgType, payload []byte) []byte {
	frame := appendU32(nil, uint32(1+len(payload)))
	frame = append(frame, byte(typ))
	return append(frame, payload...)
}

// TestServeWireCompatMatrix pins both directions of the frame-extension
// compatibility contract: frames in the pre-extension layout (old client →
// new server, old server → new client) must decode on both the legacy and
// pooled paths with the extension fields zeroed, a new frame carrying
// explicit zeros must decode identically, and stray trailing bytes too
// short to be an extension stay tolerated like they always were.
func TestServeWireCompatMatrix(t *testing.T) {
	decodeBoth := func(t *testing.T, frame []byte) (Message, Message) {
		t.Helper()
		legacy, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("legacy decode: %v", err)
		}
		pooled, err := NewReader(bytes.NewReader(frame)).Next()
		if err != nil {
			t.Fatalf("pooled decode: %v", err)
		}
		return legacy, pooled
	}

	t.Run("old-request-new-server", func(t *testing.T) {
		payload := appendU64(nil, 42)
		payload = appendU32(payload, math.Float32bits(1.5))
		payload = appendF32s(payload, []float32{7, 8, 9})
		legacy, pooled := decodeBoth(t, oldFrame(TypePredictRequest, payload))
		lm := legacy.(PredictRequest)
		pm := pooled.(*PredictRequest)
		for _, got := range []PredictRequest{lm, *pm} {
			if got.ID != 42 || got.T != 1.5 || got.DeadlineMs != 0 || !f32BitsEqual(got.Params, []float32{7, 8, 9}) {
				t.Fatalf("old-layout request decoded as %+v", got)
			}
		}
		RecyclePredictRequest(pm)
	})

	t.Run("new-request-zero-deadline", func(t *testing.T) {
		legacy, pooled := decodeBoth(t, Encode(PredictRequest{ID: 42, T: 1.5, Params: []float32{7, 8, 9}}))
		if lm := legacy.(PredictRequest); lm.DeadlineMs != 0 || lm.ID != 42 {
			t.Fatalf("explicit-zero deadline decoded as %+v", lm)
		}
		pm := pooled.(*PredictRequest)
		if pm.DeadlineMs != 0 || pm.ID != 42 {
			t.Fatalf("pooled explicit-zero deadline decoded as %+v", pm)
		}
		RecyclePredictRequest(pm)
	})

	t.Run("short-trailing-junk-tolerated", func(t *testing.T) {
		payload := appendU64(nil, 1)
		payload = appendU32(payload, math.Float32bits(2))
		payload = appendF32s(payload, []float32{3})
		payload = append(payload, 0xAB, 0xCD) // 2 bytes: not a whole extension
		legacy, pooled := decodeBoth(t, oldFrame(TypePredictRequest, payload))
		if lm := legacy.(PredictRequest); lm.DeadlineMs != 0 {
			t.Fatalf("junk tail decoded as deadline: %+v", lm)
		}
		pm := pooled.(*PredictRequest)
		if pm.DeadlineMs != 0 {
			t.Fatalf("pooled junk tail decoded as deadline: %+v", pm)
		}
		RecyclePredictRequest(pm)
	})

	t.Run("old-predict-error", func(t *testing.T) {
		payload := appendU64(nil, 5)
		payload = appendString(payload, "bad parameter count")
		legacy, pooled := decodeBoth(t, oldFrame(TypePredictError, payload))
		for _, got := range []Message{legacy, pooled} {
			m := got.(PredictError)
			if m.ID != 5 || m.Msg != "bad parameter count" || m.Code != PredictErrGeneric || m.RetryAfterMs != 0 {
				t.Fatalf("old-layout error decoded as %+v", m)
			}
		}
	})

	t.Run("old-serve-info", func(t *testing.T) {
		payload := appendString(nil, "heat")
		payload = appendU32(payload, 5)
		payload = appendU32(payload, 256)
		payload = appendU32(payload, 3)
		legacy, pooled := decodeBoth(t, oldFrame(TypeServeInfo, payload))
		for _, got := range []Message{legacy, pooled} {
			m := got.(ServeInfo)
			if m.Problem != "heat" || m.ParamDim != 5 || m.OutputDim != 256 || m.Epoch != 3 {
				t.Fatalf("old-layout info decoded as %+v", m)
			}
			if m.Queue != 0 || m.QueueCap != 0 || m.Shed != 0 || m.Expired != 0 || m.SlowClients != 0 || m.Draining != 0 {
				t.Fatalf("old-layout info grew pressure fields: %+v", m)
			}
		}
	})

	t.Run("new-frames-round-trip", func(t *testing.T) {
		for _, m := range []Message{
			PredictRequest{ID: 1, T: 2, Params: []float32{3}, DeadlineMs: 750},
			PredictError{ID: 2, Msg: "overloaded", Code: PredictErrOverloaded, RetryAfterMs: 9},
			ServeInfo{Problem: "heat", ParamDim: 5, OutputDim: 64, Epoch: 7,
				Queue: 3, QueueCap: 128, Shed: 11, Expired: 2, SlowClients: 4, Draining: 1},
		} {
			legacy, pooled := decodeBoth(t, Encode(m))
			if req, ok := m.(PredictRequest); ok {
				pm := pooled.(*PredictRequest)
				if lm := legacy.(PredictRequest); lm.DeadlineMs != req.DeadlineMs || pm.DeadlineMs != req.DeadlineMs {
					t.Fatalf("deadline lost: legacy %+v pooled %+v", lm, pm)
				}
				RecyclePredictRequest(pm)
				continue
			}
			if !reflect.DeepEqual(normalizeEmptySlices(legacy), normalizeEmptySlices(m)) ||
				!reflect.DeepEqual(normalizeEmptySlices(pooled.(Message)), normalizeEmptySlices(m)) {
				t.Fatalf("%T round trip: legacy %+v pooled %+v want %+v", m, legacy, pooled, m)
			}
		}
	})
}

// TestServePooledDecodeBitIdentical streams randomized serving messages
// through the pooled Reader and the legacy Read and requires bit-identical
// results, mirroring the ingestion-path guarantee for TimeStep.
func TestServePooledDecodeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 23))
	randFloats := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(rng.Uint32())
		}
		return out
	}
	var stream bytes.Buffer
	var want []Message
	for i := 0; i < 300; i++ {
		var m Message
		switch rng.IntN(5) {
		case 0:
			m = PredictRequest{ID: rng.Uint64(), T: math.Float32frombits(rng.Uint32()), Params: randFloats(rng.IntN(12)), DeadlineMs: rng.Uint32N(5000)}
		case 1:
			m = PredictResponse{ID: rng.Uint64(), Epoch: rng.Uint32(), Field: randFloats(rng.IntN(2000))}
		case 2:
			m = PredictError{ID: rng.Uint64(), Msg: "err", Code: rng.Uint32N(4), RetryAfterMs: rng.Uint32N(100)}
		case 3:
			m = ServeInfo{Problem: "gray-scott", ParamDim: rng.Uint32(), OutputDim: rng.Uint32(), Epoch: rng.Uint32(),
				Queue: rng.Uint32N(64), QueueCap: 64, Shed: rng.Uint64N(1000), Expired: rng.Uint64N(100), SlowClients: rng.Uint64N(10), Draining: rng.Uint32N(2)}
		default:
			m = ReloadResult{Epoch: rng.Uint32(), Msg: ""}
		}
		want = append(want, m)
		if err := Write(&stream, m); err != nil {
			t.Fatal(err)
		}
	}

	legacyStream := bytes.NewReader(stream.Bytes())
	pooled := NewReader(bytes.NewReader(stream.Bytes()))
	for i, wm := range want {
		legacy, err := Read(legacyStream)
		if err != nil {
			t.Fatalf("message %d: legacy read: %v", i, err)
		}
		got, err := pooled.Next()
		if err != nil {
			t.Fatalf("message %d: pooled read: %v", i, err)
		}
		switch m := got.(type) {
		case *PredictRequest:
			lm := legacy.(PredictRequest)
			wmv := wm.(PredictRequest)
			if m.ID != lm.ID || math.Float32bits(m.T) != math.Float32bits(lm.T) || m.DeadlineMs != lm.DeadlineMs || m.DeadlineMs != wmv.DeadlineMs {
				t.Fatalf("message %d: header mismatch %+v vs %+v", i, m, lm)
			}
			if !f32BitsEqual(m.Params, lm.Params) || !f32BitsEqual(m.Params, wmv.Params) {
				t.Fatalf("message %d: request params bits differ", i)
			}
			RecyclePredictRequest(m)
		case *PredictResponse:
			lm := legacy.(PredictResponse)
			wmv := wm.(PredictResponse)
			if m.ID != lm.ID || m.Epoch != lm.Epoch {
				t.Fatalf("message %d: header mismatch %+v vs %+v", i, m, lm)
			}
			if !f32BitsEqual(m.Field, lm.Field) || !f32BitsEqual(m.Field, wmv.Field) {
				t.Fatalf("message %d: response field bits differ", i)
			}
			RecyclePredictResponse(m)
		default:
			if !reflect.DeepEqual(got, legacy) {
				t.Fatalf("message %d: %+v != legacy %+v", i, got, legacy)
			}
		}
	}
	if _, err := pooled.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestServeReaderZeroAllocSteadyState gates the serving decode hot pair at
// zero allocations per message once the pools are warm: requests on the
// server side, responses on the client side.
func TestServeReaderZeroAllocSteadyState(t *testing.T) {
	reqFrame := Encode(PredictRequest{ID: 1, T: 0.5, Params: make([]float32, 6)})
	respFrame := Encode(PredictResponse{ID: 1, Epoch: 1, Field: make([]float32, 1024)})
	for name, frame := range map[string][]byte{"request": reqFrame, "response": respFrame} {
		const iters = 512
		src := bytes.NewReader(nil)
		rd := NewReader(src)
		recycle := func(m Message) {
			switch v := m.(type) {
			case *PredictRequest:
				RecyclePredictRequest(v)
			case *PredictResponse:
				RecyclePredictResponse(v)
			}
		}
		for i := 0; i < 8; i++ { // warm body buffer and payload pool
			src.Reset(frame)
			m, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			recycle(m)
		}
		avg := testing.AllocsPerRun(iters, func() {
			src.Reset(frame)
			m, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			recycle(m)
		})
		if avg != 0 {
			t.Fatalf("%s decode allocates %.2f allocs/op, want 0", name, avg)
		}
	}
}

// FuzzServeFrame fuzzes the serving frame decoders: arbitrary bodies must
// decode or error, never panic or over-read, and the pooled and legacy
// paths must agree — including on the new predict request/response frames.
func FuzzServeFrame(f *testing.F) {
	f.Add(Encode(PredictRequest{ID: 1, T: 0.5, Params: []float32{1, 2, 3}})[4:])
	f.Add(Encode(PredictRequest{ID: 1, T: 0.5, Params: []float32{1, 2, 3}, DeadlineMs: 250})[4:])
	f.Add(Encode(PredictResponse{ID: 1, Epoch: 2, Field: []float32{4, 5}})[4:])
	f.Add(Encode(PredictError{ID: 1, Msg: "bad"})[4:])
	f.Add(Encode(PredictError{ID: 1, Msg: "overloaded", Code: PredictErrOverloaded, RetryAfterMs: 8})[4:])
	f.Add(Encode(ServeInfoRequest{})[4:])
	f.Add(Encode(ServeInfo{Problem: "heat", ParamDim: 5, OutputDim: 256, Epoch: 1})[4:])
	f.Add(Encode(ServeInfo{Problem: "heat", ParamDim: 5, OutputDim: 256, Epoch: 1,
		Queue: 3, QueueCap: 64, Shed: 2, Expired: 1, SlowClients: 1, Draining: 1})[4:])
	f.Add(Encode(Reload{Path: "x.mlsg"})[4:])
	f.Add(Encode(ReloadResult{Epoch: 1, Msg: ""})[4:])
	// Pre-extension layouts: PredictRequest ending at Params, PredictError
	// ending at Msg — must stay decodable with the extensions zeroed.
	f.Add(oldFrame(TypePredictRequest, appendF32s(appendU32(appendU64(nil, 1), math.Float32bits(0.5)), []float32{1}))[4:])
	f.Add(oldFrame(TypePredictError, appendString(appendU64(nil, 1), "bad"))[4:])
	f.Add([]byte{byte(TypePredictRequest), 1, 0, 0, 0, 0, 0, 0, 0})                                      // truncated
	f.Add([]byte{byte(TypePredictResponse), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // huge float count
	f.Add([]byte{byte(TypeReload), 0xff, 0xff, 0xff, 0xff})                                              // huge string length
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 || len(body) > MaxFrameSize {
			return
		}
		msg, err := decodeBodyRef(append([]byte(nil), body...))
		pooled, perr := NewReader(bytes.NewReader(frameOf(body))).Next()
		if (err == nil) != (perr == nil) {
			t.Fatalf("legacy err %v, pooled err %v", err, perr)
		}
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case PredictRequest:
			p, ok := pooled.(*PredictRequest)
			if !ok {
				t.Fatalf("pooled decode returned %T", pooled)
			}
			if p.ID != m.ID || math.Float32bits(p.T) != math.Float32bits(m.T) || p.DeadlineMs != m.DeadlineMs || !bitsEqual(p.Params, m.Params) {
				t.Fatalf("pooled request diverged from legacy decode")
			}
			RecyclePredictRequest(p)
		case PredictResponse:
			p, ok := pooled.(*PredictResponse)
			if !ok {
				t.Fatalf("pooled decode returned %T", pooled)
			}
			if p.ID != m.ID || p.Epoch != m.Epoch || !bitsEqual(p.Field, m.Field) {
				t.Fatalf("pooled response diverged from legacy decode")
			}
			RecyclePredictResponse(p)
		default:
			// Other frames: re-encode → re-decode → re-encode must be a
			// fixed point. Comparing encoded bytes (not decoded structs)
			// keeps the check bit-exact for NaN float payloads.
			wire := AppendEncode(nil, msg)
			back, rerr := Read(bytes.NewReader(wire))
			if rerr != nil {
				t.Fatalf("re-decode of valid %T failed: %v", msg, rerr)
			}
			if again := AppendEncode(nil, back); !bytes.Equal(again, wire) {
				t.Fatalf("re-encode of %T diverged: %x vs %x", msg, again, wire)
			}
		}
	})
}

// BenchmarkF32Codec compares the scalar byte↔float shuffle (the loop the
// collective ring used before it adopted the shared codec) against the
// exported 8-wide unrolled bulk loops, in both directions.
func BenchmarkF32Codec(b *testing.B) {
	const n = 16384 // a 64 KiB collective chunk
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	buf := make([]byte, 4*n)
	dst := make([]float32, n)
	b.Run("encode-scalar", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			for j, v := range vals {
				putU32LE(buf[4*j:], math.Float32bits(v))
			}
		}
	})
	b.Run("encode-bulk", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			EncodeF32s(buf, vals)
		}
	})
	b.Run("decode-scalar", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = math.Float32frombits(u32LE(buf[4*j:]))
			}
		}
	})
	b.Run("decode-bulk", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			DecodeF32s(dst, buf)
		}
	})
}

func putU32LE(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func u32LE(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
