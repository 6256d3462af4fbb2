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
// (~3.5k bins, ~28 KiB). Insertion order does not affect its answers,
// and all arithmetic is deterministic, so sketch-mode sweep output is
// byte-identical at any worker count.
//
// Percentile walks the bins from a finger: the bin of its last answer
// and the number of samples below that bin. Add keeps the count
// current, Merge and the first query after a Reset start the finger at
// the lowest occupied bin, and each Percentile walks it to the new
// answer's bin. The hedge deadline queries one sketch once per
// dispatch with a sample or two added in between, so a query costs the
// few bins between consecutive answers, and math.Pow runs only when the
// answer's bin changes. Percentile thus writes the sketch, as
// Dist.Percentile sorts its tail: concurrent queries of one sketch must
// be synchronized. The zero value is NOT usable; use NewSketch.
type Sketch struct {
	counts []uint64
	// lo bounds the occupied bins from below: every bin under it is
	// empty. It is len(counts) when no bin holds a sample.
	lo int
	// fi is the finger's bin and below the number of samples under it:
	// low plus the counts of bins 0..fi-1. A Reset parks it at
	// len(counts), where the first query starts it at lo instead.
	fi, below int
	// rep is the representative value of bin repBin, the last bin a
	// query answered from (-1 before the first).
	repBin int
	rep    float64
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
	return &Sketch{counts: make([]uint64, sketchBins), lo: sketchBins, fi: sketchBins, repBin: -1}
}

// Reset empties the sketch in place, reusing the bin array — the
// hot-path alternative to allocating a fresh NewSketch per window.
func (s *Sketch) Reset() {
	clear(s.counts[s.lo:])
	s.lo = len(s.counts)
	s.fi, s.below = len(s.counts), 0
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
		s.below++
		return
	}
	idx := int(math.Log(v/sketchMinValue) * sketchInvLogGamma)
	if idx >= len(s.counts) {
		idx = len(s.counts) - 1
	}
	s.counts[idx]++
	if idx < s.fi {
		s.below++
	}
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
	s.fi, s.below = s.lo, s.low
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
	// Same closest-rank convention as Dist: rank p spans [0, n-1]. The
	// answer is the first bin whose samples, with every sample below it,
	// outnumber rank. Counts are integers, and rank < n holds for an
	// integer n exactly when floor(rank) < n, so the walk compares
	// integers and gives the answers of the float sum a walk up from bin
	// 0 accumulates.
	rank := int(p / 100 * float64(s.count-1))
	if rank < s.low {
		return s.min
	}
	i, below := s.fi, s.below
	if i == len(s.counts) {
		// No query since a Reset: walk up from the lowest occupied bin,
		// where every sample ranks at or above low.
		i, below = s.lo, s.low
	}
	for rank < below {
		i--
		below -= int(s.counts[i])
	}
	for i < len(s.counts) && rank >= below+int(s.counts[i]) {
		below += int(s.counts[i])
		i++
	}
	s.fi, s.below = i, below
	if i == len(s.counts) {
		return s.max
	}
	if i != s.repBin {
		s.repBin, s.rep = i, sketchMinValue*math.Pow(sketchGamma, float64(i)+0.5)
	}
	return s.clamp(s.rep)
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
