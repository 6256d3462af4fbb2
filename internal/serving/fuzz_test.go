package serving

import (
	"math"
	"testing"
)

// FuzzParseSpeeds checks ParseSpeeds on arbitrary hetero specs: it
// never panics, every speed it accepts is finite, and FormatSpeeds is a
// canonical form that parses back to itself. The seeds are the specs
// the tests use plus non-finite inputs.
func FuzzParseSpeeds(f *testing.F) {
	for _, spec := range []string{
		"", "1,0.5", "2,1,0.5", "2,0.5", "1.5,0.6", "1,1,0.25", "1.0, 0.50",
		"0", "-1,2", "fast", "1,,2", "nan", "1,inf", "NaN", "+Inf", "1,-Inf",
		"1e21,5e-324", "0x1p-2,1e300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		speeds, err := ParseSpeeds(spec)
		if err != nil {
			return
		}
		for _, v := range speeds {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseSpeeds(%q) accepted non-finite %g", spec, v)
			}
		}
		canon := FormatSpeeds(speeds)
		again, err := ParseSpeeds(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := FormatSpeeds(again); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
	})
}
