package protocol

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWireTypeValues pins the frame type numbers peers of another build
// decode by: removing a type from the middle of the list (7 was the ring's
// barrier token) must leave a hole, not renumber what follows.
func TestWireTypeValues(t *testing.T) {
	for typ, want := range map[MsgType]uint8{
		TypeHello: 1, TypeTimeStep: 2, TypeGoodbye: 3, TypeHeartbeat: 4,
		TypeRingHello: 5, TypeRingFloats: 6, TypeRingPing: 8,
		TypePredictRequest: 9, TypeReloadResult: 15, TypeRingFloats16: 16,
	} {
		if uint8(typ) != want {
			t.Errorf("frame type with wire value %d now encodes as %d", want, uint8(typ))
		}
	}
}

func TestHelloRoundtrip(t *testing.T) {
	in := Hello{ClientID: 7, SimID: 9, Steps: 100, Restart: 2}
	got := roundtrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestTimeStepRoundtrip(t *testing.T) {
	in := TimeStep{
		SimID: 3,
		Step:  42,
		Input: []float32{100.5, 200.25, 300, 400, 500, 0.42},
		Field: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	got := roundtrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestTimeStepEmptySlices(t *testing.T) {
	in := TimeStep{SimID: 1, Step: 1, Input: []float32{}, Field: []float32{}}
	got := roundtrip(t, in).(TimeStep)
	if len(got.Input) != 0 || len(got.Field) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestGoodbyeHeartbeatRoundtrip(t *testing.T) {
	if got := roundtrip(t, Goodbye{ClientID: 11, SimID: 4}); !reflect.DeepEqual(got, Goodbye{ClientID: 11, SimID: 4}) {
		t.Fatalf("goodbye: %+v", got)
	}
	if got := roundtrip(t, Heartbeat{ClientID: 5}); !reflect.DeepEqual(got, Heartbeat{ClientID: 5}) {
		t.Fatalf("heartbeat: %+v", got)
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Hello{ClientID: 1, SimID: 1, Steps: 2},
		TimeStep{SimID: 1, Step: 1, Input: []float32{1}, Field: []float32{2, 3}},
		TimeStep{SimID: 1, Step: 2, Input: []float32{1}, Field: []float32{4, 5}},
		Goodbye{ClientID: 1, SimID: 1},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// slowReader returns one byte at a time, exercising partial-read handling.
type slowReader struct{ data []byte }

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	p[0] = s.data[0]
	s.data = s.data[1:]
	return 1, nil
}

func TestReadFromSlowReader(t *testing.T) {
	in := TimeStep{SimID: 2, Step: 3, Input: []float32{9, 8}, Field: []float32{7}}
	got, err := Read(&slowReader{data: Encode(in)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	// Truncated header.
	if _, err := Read(bytes.NewReader([]byte{1, 0})); err == nil {
		t.Fatal("expected error for truncated header")
	}
	// Zero-size frame.
	if _, err := Read(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("expected error for zero-length frame")
	}
	// Oversized frame.
	if _, err := Read(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("expected error for oversized frame")
	}
	// Truncated body.
	frame := Encode(Heartbeat{ClientID: 1})
	if _, err := Read(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Fatal("expected error for truncated body")
	}
	// Unknown type.
	if _, err := Read(bytes.NewReader([]byte{1, 0, 0, 0, 99})); err == nil {
		t.Fatal("expected error for unknown type")
	}
	// TimeStep with short float payload.
	bad := []byte{10, 0, 0, 0, byte(TypeTimeStep), 1, 0, 0, 0, 2, 0, 0, 0, 9}
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected error for short float payload")
	}
}

func TestCleanEOFBetweenFrames(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// Property: TimeStep roundtrips for arbitrary slice contents and lengths.
func TestTimeStepRoundtripProperty(t *testing.T) {
	f := func(simID, step int32, input, field []float32) bool {
		in := TimeStep{SimID: simID, Step: step, Input: input, Field: field}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		ts, ok := got.(TimeStep)
		if !ok || ts.SimID != simID || ts.Step != step {
			return false
		}
		if len(ts.Input) != len(input) || len(ts.Field) != len(field) {
			return false
		}
		for i := range input {
			// NaN compares unequal to itself; compare bit patterns via
			// the simple check of both-NaN.
			if ts.Input[i] != input[i] && !(input[i] != input[i] && ts.Input[i] != ts.Input[i]) {
				return false
			}
		}
		for i := range field {
			if ts.Field[i] != field[i] && !(field[i] != field[i] && ts.Field[i] != ts.Field[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeTimeStep(b *testing.B) {
	msg := TimeStep{SimID: 1, Step: 1, Input: make([]float32, 6), Field: make([]float32, 1024)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(msg)
	}
}
