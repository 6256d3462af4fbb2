// Package metrics provides the latency and accuracy bookkeeping used by
// the serving simulator and the experiment harness: exact percentile
// computation over collected samples, a bounded-memory quantile sketch,
// sliding accuracy windows, and latency-win summaries in the format the
// paper reports. The Recorder interface abstracts over the exact and
// sketched implementations so simulators can stream samples into either
// without caring which is underneath.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Recorder accumulates float64 samples (latencies in milliseconds,
// unless stated otherwise) and answers order-statistic queries. Two
// implementations exist: Dist (exact, O(n) memory) and Sketch
// (approximate, O(1) memory). Simulators record into the interface;
// the caller picks the implementation per scenario via NewRecorder.
type Recorder interface {
	// Add appends one sample.
	Add(v float64)
	// Len reports the number of samples recorded.
	Len() int
	// Percentile returns the p-th percentile (p in [0, 100]). It panics
	// on an empty recorder or out-of-range p.
	Percentile(p float64) float64
	// Median returns the 50th percentile.
	Median() float64
	// Mean returns the arithmetic mean. It panics when empty.
	Mean() float64
	// Min returns the smallest sample. It panics when empty.
	Min() float64
	// Max returns the largest sample. It panics when empty.
	Max() float64
	// Summarize computes a Summary. It panics when empty.
	Summarize() Summary
	// Merge folds another recorder of the same implementation into this
	// one. It panics on mismatched implementations: exact and sketched
	// samples cannot be combined losslessly.
	Merge(other Recorder)
}

// Mode selects a Recorder implementation.
type Mode int

// Supported recorder modes.
const (
	// ModeExact keeps every sample (Dist): exact percentiles, O(n)
	// memory.
	ModeExact Mode = iota
	// ModeSketch keeps a log-scaled histogram (Sketch): percentiles
	// within ~0.5% relative error, O(1) memory.
	ModeSketch
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeSketch:
		return "sketch"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a mode name to its Mode value. The empty string is the
// exact default.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "exact":
		return ModeExact, nil
	case "sketch":
		return ModeSketch, nil
	}
	return 0, fmt.Errorf("metrics: unknown mode %q (want exact | sketch)", name)
}

// NewRecorder returns an empty recorder of the given mode. capacity is a
// size hint for ModeExact and ignored for ModeSketch.
func NewRecorder(m Mode, capacity int) Recorder {
	if m == ModeSketch {
		return NewSketch()
	}
	return NewDist(capacity)
}

// Dist collects float64 samples and answers exact order-statistic
// queries. The zero value is an empty, usable distribution.
//
// Internally Dist keeps a sorted run plus an unsorted pending tail:
// Add/AddAll append to the tail in O(1), and the first query after a
// batch of adds sorts just the tail and merges it into the run —
// O(k log k + n) for k pending adds instead of the O(n log n) full
// re-sort per query that interleaved add/query workloads used to pay
// (see BenchmarkDistInterleaved). The capacity hint presizes the tail,
// where a streaming recorder's adds land, and the first query sorts the
// tail in place and makes it the run.
type Dist struct {
	sorted  []float64 // sorted run
	pending []float64 // unsorted recent adds
	sum     float64
}

// NewDist returns an empty distribution with the given capacity hint.
func NewDist(capacity int) *Dist {
	return &Dist{pending: make([]float64, 0, capacity)}
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.pending = append(d.pending, v)
	d.sum += v
}

// AddAll appends all samples.
func (d *Dist) AddAll(vs []float64) {
	d.pending = append(d.pending, vs...)
	for _, v := range vs {
		d.sum += v
	}
}

// Merge folds another exact distribution into this one.
func (d *Dist) Merge(other Recorder) {
	od, ok := other.(*Dist)
	if !ok {
		panic(fmt.Sprintf("metrics: cannot merge %T into *Dist", other))
	}
	d.AddAll(od.sorted)
	d.AddAll(od.pending)
}

// Len reports the number of samples collected.
func (d *Dist) Len() int { return len(d.sorted) + len(d.pending) }

// ensureSorted folds the pending tail into the sorted run.
func (d *Dist) ensureSorted() {
	if len(d.pending) == 0 {
		return
	}
	sort.Float64s(d.pending)
	if len(d.sorted) == 0 {
		d.sorted, d.pending = d.pending, d.sorted[:0]
		return
	}
	d.sorted = mergeSorted(d.sorted, d.pending)
	d.pending = d.pending[:0]
}

// mergeSorted merges sorted b into sorted a in one backward pass,
// reusing a's backing array when capacity allows.
func mergeSorted(a, b []float64) []float64 {
	n, m := len(a), len(b)
	a = append(a, b...) // grow; the tail is overwritten by the merge
	i, j := n-1, m-1
	for k := n + m - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between closest ranks. It panics on an empty distribution
// or out-of-range p: both indicate harness bugs, not runtime conditions.
func (d *Dist) Percentile(p float64) float64 {
	if d.Len() == 0 {
		panic("metrics: Percentile of empty distribution")
	}
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	d.ensureSorted()
	if len(d.sorted) == 1 {
		return d.sorted[0]
	}
	rank := p / 100 * float64(len(d.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.sorted[lo]
	}
	frac := rank - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean. It panics on an empty distribution.
func (d *Dist) Mean() float64 {
	if d.Len() == 0 {
		panic("metrics: Mean of empty distribution")
	}
	return d.sum / float64(d.Len())
}

// Min returns the smallest sample.
func (d *Dist) Min() float64 {
	if d.Len() == 0 {
		panic("metrics: Min of empty distribution")
	}
	d.ensureSorted()
	return d.sorted[0]
}

// Max returns the largest sample.
func (d *Dist) Max() float64 {
	if d.Len() == 0 {
		panic("metrics: Max of empty distribution")
	}
	d.ensureSorted()
	return d.sorted[len(d.sorted)-1]
}

// Summary is the (median, p25, p95, mean) tuple the paper's figures report.
type Summary struct {
	Count  int
	Mean   float64
	P25    float64
	Median float64
	P95    float64
	P99    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary. It panics on an empty distribution.
func (d *Dist) Summarize() Summary { return summarize(d) }

// summarize builds a Summary from any recorder.
func summarize(r Recorder) Summary {
	return Summary{
		Count:  r.Len(),
		Mean:   r.Mean(),
		P25:    r.Percentile(25),
		Median: r.Median(),
		P95:    r.Percentile(95),
		P99:    r.Percentile(99),
		Min:    r.Min(),
		Max:    r.Max(),
	}
}

// WinPercent reports the relative improvement of got over base at a given
// quantile, in percent: positive means got is faster (smaller).
func WinPercent(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - got) / base * 100
}

// AccuracyWindow maintains a sliding window of boolean accuracy outcomes
// (did the released result match the original model's output?) and reports
// the windowed accuracy. This is the trigger signal for threshold tuning
// (§3.2: "average achieved accuracy over the past 16 samples").
type AccuracyWindow struct {
	size    int
	buf     []bool
	next    int
	filled  int
	correct int
}

// NewAccuracyWindow returns a window over the past size outcomes.
// size must be positive.
func NewAccuracyWindow(size int) *AccuracyWindow {
	if size <= 0 {
		panic("metrics: AccuracyWindow size must be positive")
	}
	return &AccuracyWindow{size: size, buf: make([]bool, size)}
}

// Observe records one outcome.
func (w *AccuracyWindow) Observe(correct bool) {
	if w.filled == w.size {
		if w.buf[w.next] {
			w.correct--
		}
	} else {
		w.filled++
	}
	w.buf[w.next] = correct
	if correct {
		w.correct++
	}
	w.next = (w.next + 1) % w.size
}

// Accuracy reports the fraction of correct outcomes in the window.
// It returns 1.0 before any outcome is observed (no evidence of loss).
func (w *AccuracyWindow) Accuracy() float64 {
	if w.filled == 0 {
		return 1.0
	}
	return float64(w.correct) / float64(w.filled)
}

// Full reports whether the window has observed at least size outcomes.
func (w *AccuracyWindow) Full() bool { return w.filled == w.size }

// Reset empties the window.
func (w *AccuracyWindow) Reset() {
	w.next, w.filled, w.correct = 0, 0, 0
}

// Counter tracks a running total with a count, for mean throughput-style
// metrics.
type Counter struct {
	Sum   float64
	Count int
}

// Add records one observation.
func (c *Counter) Add(v float64) {
	c.Sum += v
	c.Count++
}

// Mean returns Sum/Count, or 0 when empty.
func (c *Counter) Mean() float64 {
	if c.Count == 0 {
		return 0
	}
	return c.Sum / float64(c.Count)
}
