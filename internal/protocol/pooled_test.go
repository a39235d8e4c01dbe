package protocol

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestAppendEncodeMatchesEncode pins the satellite contract: the
// single-buffer framing must be byte-identical to the legacy two-allocation
// Encode for every message type, including when appending after existing
// bytes.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	msgs := []Message{
		Hello{ClientID: 1, SimID: 2, Steps: 3, Restart: 4},
		TimeStep{SimID: 5, Step: 6, Input: []float32{1, 2, 3}, Field: []float32{4, 5, 6, 7, 8, 9, 10, 11, 12}},
		TimeStep{SimID: -1, Step: -2},
		Goodbye{ClientID: 7, SimID: 8},
		Heartbeat{ClientID: 9},
	}
	for _, m := range msgs {
		legacy := Encode(m)
		got := AppendEncode(nil, m)
		if !bytes.Equal(got, legacy) {
			t.Fatalf("%T: AppendEncode differs from Encode", m)
		}
		prefix := []byte{0xAA, 0xBB}
		appended := AppendEncode(append([]byte(nil), prefix...), m)
		if !bytes.Equal(appended[:2], prefix) || !bytes.Equal(appended[2:], legacy) {
			t.Fatalf("%T: AppendEncode after prefix corrupted the frame", m)
		}
	}
}

// TestPooledDecodeBitIdentical streams randomized messages through both
// decode paths and requires bit-identical results — the pooled Reader must
// be a pure optimization of the legacy allocating Read.
func TestPooledDecodeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	randFloats := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			// Include weird bit patterns: NaNs, infs, denormals.
			out[i] = math.Float32frombits(rng.Uint32())
		}
		return out
	}
	var stream bytes.Buffer
	var want []Message
	for i := 0; i < 300; i++ {
		var m Message
		switch rng.IntN(4) {
		case 0:
			m = Hello{ClientID: int32(rng.Uint32()), SimID: int32(rng.Uint32()), Steps: int32(rng.Uint32()), Restart: int32(rng.Uint32())}
		case 1:
			m = Goodbye{ClientID: int32(rng.Uint32()), SimID: int32(rng.Uint32())}
		case 2:
			m = Heartbeat{ClientID: int32(rng.Uint32())}
		default:
			m = TimeStep{
				SimID: int32(rng.Uint32()),
				Step:  int32(rng.Uint32()),
				Input: randFloats(rng.IntN(40)),
				Field: randFloats(rng.IntN(3000)),
			}
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
		if ts, ok := got.(*TimeStep); ok {
			lts := legacy.(TimeStep)
			if ts.SimID != lts.SimID || ts.Step != lts.Step {
				t.Fatalf("message %d: header mismatch %+v vs %+v", i, ts, lts)
			}
			if !f32BitsEqual(ts.Input, lts.Input) || !f32BitsEqual(ts.Field, lts.Field) {
				t.Fatalf("message %d: payload bits differ from legacy decode", i)
			}
			wts := wm.(TimeStep)
			if !f32BitsEqual(ts.Input, wts.Input) || !f32BitsEqual(ts.Field, wts.Field) {
				t.Fatalf("message %d: payload bits differ from encoded input", i)
			}
			RecycleTimeStep(ts)
			continue
		}
		if !reflect.DeepEqual(got, legacy) {
			t.Fatalf("message %d: %+v != legacy %+v", i, got, legacy)
		}
	}
	if _, err := pooled.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func f32BitsEqual(a, b []float32) bool {
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

// TestReaderErrorsMatchRead pins that the pooled path rejects exactly what
// the legacy path rejects.
func TestReaderErrorsMatchRead(t *testing.T) {
	cases := [][]byte{
		{1, 0},                   // truncated header
		{0, 0, 0, 0},             // zero-size frame
		{0xff, 0xff, 0xff, 0xff}, // oversized frame
		{1, 0, 0, 0, 99},         // unknown type
		{10, 0, 0, 0, byte(TypeTimeStep), 1, 0, 0, 0, 2, 0, 0, 0, 9}, // short float payload
	}
	frame := Encode(Heartbeat{ClientID: 1})
	cases = append(cases, frame[:len(frame)-2]) // truncated body
	for i, c := range cases {
		_, legacyErr := Read(bytes.NewReader(c))
		_, pooledErr := NewReader(bytes.NewReader(c)).Next()
		if (legacyErr == nil) != (pooledErr == nil) {
			t.Fatalf("case %d: legacy err %v, pooled err %v", i, legacyErr, pooledErr)
		}
		if legacyErr == nil {
			t.Fatalf("case %d: expected an error", i)
		}
	}
}

// TestReaderRecycleReuse checks the lease–recycle contract: a recycled
// payload's storage is reissued and overwritten by a later Next.
func TestReaderRecycleReuse(t *testing.T) {
	drainTimeStepPool()
	var stream bytes.Buffer
	Write(&stream, TimeStep{SimID: 1, Step: 1, Input: []float32{1}, Field: []float32{2, 3}})
	Write(&stream, TimeStep{SimID: 2, Step: 2, Input: []float32{4}, Field: []float32{5, 6}})
	rd := NewReader(&stream)
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	ts1 := first.(*TimeStep)
	RecycleTimeStep(ts1)
	second, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	ts2 := second.(*TimeStep)
	if ts1 != ts2 {
		t.Fatal("recycled TimeStep was not reissued")
	}
	if ts2.SimID != 2 || ts2.Field[1] != 6 {
		t.Fatalf("reissued payload not overwritten: %+v", ts2)
	}
}

func drainTimeStepPool() {
	for {
		select {
		case <-timeStepFree:
		default:
			return
		}
	}
}

// TestReaderZeroAllocSteadyState gates the ingestion decode path at zero
// allocations per message once the frame body and payload pools are warm.
func TestReaderZeroAllocSteadyState(t *testing.T) {
	msg := TimeStep{SimID: 1, Step: 1, Input: make([]float32, 7), Field: make([]float32, 1024)}
	frame := Encode(msg)
	const iters = 512
	stream := bytes.Repeat(frame, 2*iters+8)
	src := bytes.NewReader(stream)
	rd := NewReader(src)
	for i := 0; i < 8; i++ { // warm the body buffer and the payload pool
		m, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		RecycleTimeStep(m.(*TimeStep))
	}
	avg := testing.AllocsPerRun(iters, func() {
		m, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		RecycleTimeStep(m.(*TimeStep))
	})
	if avg != 0 {
		t.Fatalf("pooled decode allocates %.2f allocs/op, want 0", avg)
	}
}

// TestAppendEncodeZeroAlloc gates the encode side: framing into a recycled
// buffer must not allocate.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	// Box the message once: converting a TimeStep value to the Message
	// interface at the call site allocates, which is why hot paths pass
	// *TimeStep (pointer boxing is free).
	var msg Message = &TimeStep{SimID: 1, Step: 1, Input: make([]float32, 7), Field: make([]float32, 1024)}
	buf := AppendEncode(nil, msg)
	avg := testing.AllocsPerRun(512, func() {
		buf = AppendEncode(buf[:0], msg)
	})
	if avg != 0 {
		t.Fatalf("AppendEncode into recycled buffer allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkAppendEncodeTimeStep(b *testing.B) {
	var msg Message = &TimeStep{SimID: 1, Step: 1, Input: make([]float32, 6), Field: make([]float32, 1024)}
	var buf []byte
	b.SetBytes(int64(len(Encode(msg))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], msg)
	}
}

func BenchmarkPooledDecodeTimeStep(b *testing.B) {
	msg := TimeStep{SimID: 1, Step: 1, Input: make([]float32, 6), Field: make([]float32, 1024)}
	frame := Encode(msg)
	b.SetBytes(int64(len(frame)))
	src := bytes.NewReader(nil)
	rd := NewReader(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		m, err := rd.Next()
		if err != nil {
			b.Fatal(err)
		}
		RecycleTimeStep(m.(*TimeStep))
	}
}

func BenchmarkLegacyDecodeTimeStep(b *testing.B) {
	msg := TimeStep{SimID: 1, Step: 1, Input: make([]float32, 6), Field: make([]float32, 1024)}
	frame := Encode(msg)
	b.SetBytes(int64(len(frame)))
	src := bytes.NewReader(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		if _, err := Read(src); err != nil {
			b.Fatal(err)
		}
	}
}
