package transport

import "testing"

// TestParseCodec: every codec's flag name parses back to it, and a name
// that is no codec — including the error-feedback-free variant, which is
// what AllReduceSum already is on an f16 ring — is refused.
func TestParseCodec(t *testing.T) {
	for _, c := range []Codec{CodecF32, CodecF16} {
		if got, err := ParseCodec(c.String()); err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	for _, s := range []string{"f16-noef", "f16-raw", "bf16"} {
		if c, err := ParseCodec(s); err == nil {
			t.Fatalf("ParseCodec(%q) = %v, want an error", s, c)
		}
	}
}
