package transport

import "fmt"

// Codec selects the wire encoding of collective float frames on a ring.
// It is negotiated in the ring handshake (RingOptions.Codec): both ends of
// every link must agree, or formation fails like an identity mismatch —
// a codec disagreement would not desynchronize the frame stream (frame
// types distinguish the encodings), but it would silently train different
// trajectories on different ranks, which is strictly worse.
type Codec uint8

const (
	// CodecF32 ships raw float32 — the exact, default wire format.
	CodecF32 Codec = iota
	// CodecF16 compresses collective chunks to IEEE 754 binary16 on the
	// wire, with the collective layer carrying per-slab error-feedback
	// residuals so quantization error is re-injected into the next step
	// instead of lost.
	CodecF16
)

// Compressed reports whether float frames are reduced below 4 bytes per
// element on the wire.
func (c Codec) Compressed() bool { return c == CodecF16 }

// String returns the flag-friendly name (ParseCodec's input).
func (c Codec) String() string {
	switch c {
	case CodecF32:
		return "none"
	case CodecF16:
		return "f16"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec maps a -grad-compress flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "none", "f32":
		return CodecF32, nil
	case "f16":
		return CodecF16, nil
	default:
		return CodecF32, fmt.Errorf("transport: unknown codec %q (want none or f16)", s)
	}
}
