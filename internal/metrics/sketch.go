package metrics

import (
	"fmt"
	"math"
)

// Sketch bin layout: values in [sketchMinValue, sketchMaxValue) map to
// log-scaled bins with ratio sketchGamma between consecutive bin edges.
// A bin's representative value is its geometric midpoint, so any sample
// is reported within a factor of sqrt(gamma) of its true value — a
// relative error of ~0.5% at gamma = 1.01, comfortably inside the 1%
// equivalence budget the property tests assert. The range covers
// sub-microsecond to ~11.5-day latencies in milliseconds; values below
// the range land in a dedicated underflow bin represented by the exact
// tracked minimum.
const (
	sketchGamma    = 1.01
	sketchMinValue = 1e-6
	sketchMaxValue = 1e9
)

var (
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
	sketchBins        = int(math.Ceil(math.Log(sketchMaxValue/sketchMinValue)*sketchInvLogGamma)) + 1
)

// Sketch is a streaming quantile recorder: a fixed-size log-scaled
// histogram whose memory is independent of the number of samples
// (~3.5k bins, ~28 KiB). Insertion order does not affect its state, and
// all arithmetic is deterministic, so sketch-mode sweep output is
// byte-identical at any worker count. Percentile walks the bins from
// the lowest one holding a sample, not from bin 0: latencies of 1 ms or
// more lie past bin ~1,389, and the hedge deadline queries the sketch
// once per dispatch. The zero value is NOT usable; use NewSketch.
type Sketch struct {
	counts []uint64
	// lo bounds the occupied bins from below: every bin under it is
	// empty. It is len(counts) when no bin holds a sample.
	lo int
	// low counts samples below sketchMinValue (including zero and
	// negative values, which latencies never produce but which must not
	// corrupt the histogram).
	low      int
	count    int
	sum      float64
	min, max float64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{counts: make([]uint64, sketchBins), lo: sketchBins}
}

// Reset empties the sketch in place, reusing the bin array — the
// hot-path alternative to allocating a fresh NewSketch per window.
func (s *Sketch) Reset() {
	clear(s.counts[s.lo:])
	s.lo = len(s.counts)
	s.low, s.count = 0, 0
	s.sum, s.min, s.max = 0, 0, 0
}

// Add appends one sample.
func (s *Sketch) Add(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v < sketchMinValue {
		s.low++
		return
	}
	idx := int(math.Log(v/sketchMinValue) * sketchInvLogGamma)
	if idx >= len(s.counts) {
		idx = len(s.counts) - 1
	}
	s.counts[idx]++
	if idx < s.lo {
		s.lo = idx
	}
}

// Merge folds another sketch into this one.
func (s *Sketch) Merge(other Recorder) {
	os, ok := other.(*Sketch)
	if !ok {
		panic(fmt.Sprintf("metrics: cannot merge %T into *Sketch", other))
	}
	if os.count == 0 {
		return
	}
	if s.count == 0 || os.min < s.min {
		s.min = os.min
	}
	if s.count == 0 || os.max > s.max {
		s.max = os.max
	}
	s.count += os.count
	s.sum += os.sum
	s.low += os.low
	for i := os.lo; i < len(os.counts); i++ {
		s.counts[i] += os.counts[i]
	}
	if os.lo < s.lo {
		s.lo = os.lo
	}
}

// Len reports the number of samples recorded.
func (s *Sketch) Len() int { return s.count }

// Percentile returns the approximate p-th percentile (p in [0, 100]),
// within a relative error of sqrt(gamma)-1 (~0.5%). It panics on an
// empty sketch or out-of-range p, mirroring Dist.
func (s *Sketch) Percentile(p float64) float64 {
	if s.count == 0 {
		panic("metrics: Percentile of empty sketch")
	}
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	// Same closest-rank convention as Dist: rank p spans [0, n-1].
	rank := p / 100 * float64(s.count-1)
	cum := float64(s.low)
	if rank < cum {
		return s.min
	}
	for i := s.lo; i < len(s.counts); i++ {
		c := s.counts[i]
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

// clamp keeps bin representatives inside the exactly-tracked range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Median returns the 50th percentile.
func (s *Sketch) Median() float64 { return s.Percentile(50) }

// Mean returns the exact arithmetic mean. It panics when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		panic("metrics: Mean of empty sketch")
	}
	return s.sum / float64(s.count)
}

// Min returns the exact smallest sample.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		panic("metrics: Min of empty sketch")
	}
	return s.min
}

// Max returns the exact largest sample.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		panic("metrics: Max of empty sketch")
	}
	return s.max
}

// Summarize computes a Summary. It panics when empty.
func (s *Sketch) Summarize() Summary { return summarize(s) }
