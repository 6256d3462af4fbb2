package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// refPercentile is Sketch.Percentile as it was before the sketch kept
// its lowest occupied bin and its finger: the same closest-rank walk,
// started at bin 0, pricing its answer with math.Pow on every query.
// Percentile must return its answer bit for bit.
func refPercentile(s *Sketch, p float64) float64 {
	rank := p / 100 * float64(s.count-1)
	cum := float64(s.low)
	if rank < cum {
		return s.min
	}
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if rank < cum {
			return s.clamp(sketchMinValue * math.Pow(sketchGamma, float64(i)+0.5))
		}
	}
	return s.max
}

var refPercentiles = []float64{0, 0.1, 25, 50, 95, 99, 99.9, 100}

// checkAgainstRef pins s's percentiles to refPercentile's, bit for bit,
// and checks the invariant they rest on: no bin below lo holds a sample.
func checkAgainstRef(t *testing.T, name string, s *Sketch) {
	t.Helper()
	for _, p := range refPercentiles {
		got, want := s.Percentile(p), refPercentile(s, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s p%g: %v, reference scan from bin 0 gives %v", name, p, got, want)
		}
	}
	for i, c := range s.counts[:s.lo] {
		if c != 0 {
			t.Fatalf("%s: bin %d holds %d samples below lo %d", name, i, c, s.lo)
		}
	}
}

// sketchOf returns a sketch holding vals.
func sketchOf(vals []float64) *Sketch {
	s := NewSketch()
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// logUniform draws n values spread evenly in log scale over [lo, hi).
func logUniform(r *rng.Rand, n int, lo, hi float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = lo * math.Pow(hi/lo, r.Float64())
	}
	return vals
}

// TestSketchPercentileMatchesReference pins Percentile, which walks the
// bins from its finger, to the walk from bin 0, over fills that reach
// the underflow bin and the clamped top bin, over merges in both
// directions and with empty or underflow-only operands, and over a
// Reset followed by a refill at higher values.
func TestSketchPercentileMatchesReference(t *testing.T) {
	r := rng.New(20)
	for trial := range 20 {
		var vals []float64
		for range 1 + r.Intn(400) {
			switch r.Intn(6) {
			case 0:
				vals = append(vals, 0)
			case 1:
				vals = append(vals, 1e-7)
			case 2:
				vals = append(vals, logUniform(r, 1, 1e10, 1e12)[0]) // past sketchMaxValue
			default:
				vals = append(vals, logUniform(r, 1, 0.01, 1000)[0])
			}
		}
		checkAgainstRef(t, fmt.Sprintf("random fill %d", trial), sketchOf(vals))
	}

	low := logUniform(r, 500, 1e-4, 1e-2)
	high := logUniform(r, 500, 1e3, 1e5)
	under := []float64{0, 1e-7, 5e-7}

	s := sketchOf(high)
	s.Merge(sketchOf(low))
	checkAgainstRef(t, "high merged with low", s)
	s = sketchOf(low)
	s.Merge(sketchOf(high))
	checkAgainstRef(t, "low merged with high", s)
	s = NewSketch()
	s.Merge(sketchOf(high))
	checkAgainstRef(t, "high merged into empty", s)
	s = NewSketch()
	s.Merge(sketchOf(under))
	checkAgainstRef(t, "underflow merged into empty", s)
	s = sketchOf(high)
	s.Merge(NewSketch())
	checkAgainstRef(t, "high merged with empty", s)
	s = sketchOf(high)
	s.Merge(sketchOf(under))
	checkAgainstRef(t, "high merged with underflow", s)
	s.Merge(sketchOf(low))
	checkAgainstRef(t, "high merged with underflow then low", s)

	s = sketchOf(low)
	s.Reset()
	if s.lo != len(s.counts) {
		t.Fatalf("Reset left lo at %d, want %d", s.lo, len(s.counts))
	}
	for _, v := range high {
		s.Add(v)
	}
	checkAgainstRef(t, "reset then refilled higher", s)
	if s.lo != sketchOf(high).lo {
		t.Fatalf("refilled sketch lo %d, fresh fill %d", s.lo, sketchOf(high).lo)
	}
}

// TestSketchFingerMatchesReference pins Percentile's finger to the walk
// from bin 0 over interleaved histories: Adds in range, below
// sketchMinValue and past sketchMaxValue, Resets, Merges of random,
// empty and underflow-only sketches, and queries whose p rotates up and
// down the quantiles or jumps at random. After every step it checks the
// finger's count against the bins under it and, on a non-empty sketch,
// one answer against refPercentile, bit for bit.
func TestSketchFingerMatchesReference(t *testing.T) {
	rot := []float64{0, 0.1, 25, 50, 95, 99, 99.9, 100, 99.9, 99, 95, 50, 25, 0.1}
	r := rng.New(21)
	for trial := range 200 {
		s := NewSketch()
		q := 0
		for step := range 400 {
			p := rot[q%len(rot)]
			q++
			switch k := r.Intn(40); {
			case k < 28:
				s.Add(logUniform(r, 1, 0.5, 200)[0])
			case k < 30:
				s.Add([]float64{0, 1e-7, 5e-7}[r.Intn(3)])
			case k < 32:
				s.Add(logUniform(r, 1, 1e10, 1e12)[0])
			case k < 33:
				s.Reset()
			case k < 36:
				o := NewSketch()
				switch r.Intn(3) {
				case 0:
					for _, v := range logUniform(r, r.Intn(40), 0.01, 1e4) {
						o.Add(v)
					}
				case 1:
					o.Add(1e-7)
				}
				s.Merge(o)
			default:
				p = 100 * r.Float64()
			}
			below := s.low
			for _, c := range s.counts[:s.fi] {
				below += int(c)
			}
			if s.below != below {
				t.Fatalf("trial %d step %d: finger at bin %d counts %d samples below it, the bins hold %d",
					trial, step, s.fi, s.below, below)
			}
			if s.Len() == 0 {
				continue
			}
			got, want := s.Percentile(p), refPercentile(s, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d p%g: %v, reference scan from bin 0 gives %v", trial, step, p, got, want)
			}
		}
	}
}
