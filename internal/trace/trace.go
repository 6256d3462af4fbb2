// Package trace generates request arrival processes: fixed-rate streams
// (video frames), Poisson arrivals (generative workloads, §4.1), and
// Microsoft-Azure-Functions-like (MAF) bursty traces used for the NLP
// classification workloads, following the methodology of §4.1.
//
// Every process is available in two forms: a pull-based Arrivals source
// that generates timestamps one at a time in O(1) memory (the form the
// streaming workload iterators consume), and a slice helper that
// materializes the first n timestamps for tests and small studies.
package trace

import (
	"math"

	"repro/internal/model"
	"repro/internal/rng"
)

// Arrivals is an unbounded stream of arrival timestamps in milliseconds,
// non-decreasing across calls. Implementations hold O(1) state (at most
// one second of buffered arrivals for the bursty MAF process), so a
// consumer that pulls n timestamps never materializes the trace.
type Arrivals interface {
	// Next returns the next arrival timestamp.
	Next() float64
}

// fixedRate emits arrivals at a constant period.
type fixedRate struct {
	period float64
	i      int
}

// NewFixedRate returns a constant-rate arrival source of qps requests
// per second (e.g., 30 fps video).
func NewFixedRate(qps float64) Arrivals {
	// !(qps > 0) also rejects NaN, which compares false to everything.
	if !(qps > 0) || math.IsInf(qps, 0) {
		panic("trace: FixedRate qps must be positive and finite")
	}
	return &fixedRate{period: 1000 / qps}
}

func (f *fixedRate) Next() float64 {
	t := float64(f.i) * f.period
	f.i++
	return t
}

// FixedRate returns n arrival timestamps in milliseconds at a constant
// rate of qps requests per second.
func FixedRate(n int, qps float64) []float64 {
	return collect(NewFixedRate(qps), n)
}

// poisson emits arrivals from a homogeneous Poisson process.
type poisson struct {
	r         *rng.Rand
	ratePerMS float64
	t         float64
}

// NewPoisson returns a homogeneous Poisson arrival source with the given
// mean rate.
func NewPoisson(qps float64, r *rng.Rand) Arrivals {
	if !(qps > 0) || math.IsInf(qps, 0) {
		panic("trace: Poisson qps must be positive and finite")
	}
	return &poisson{r: r, ratePerMS: qps / 1000}
}

func (p *poisson) Next() float64 {
	p.t += p.r.Exp(p.ratePerMS)
	return p.t
}

// Poisson returns n arrival timestamps (ms) from a homogeneous Poisson
// process with the given mean rate.
func Poisson(n int, qps float64, r *rng.Rand) []float64 {
	return collect(NewPoisson(qps, r), n)
}

// maf emits arrivals from the bursty MAF-style process one second at a
// time: the per-second rate follows a mean-reverting AR(1) on the log
// scale with occasional multiplicative spikes, and arrivals within each
// second are Poisson at that second's rate. Only the current second's
// arrivals are buffered, so memory is O(peak per-second rate), not O(n).
type maf struct {
	r       *rng.Rand
	meanQPS float64
	statVar float64
	x       float64
	sec     int
	buf     []float64
	next    int
}

// MAF process parameters.
const (
	mafPhi      = 0.90 // AR(1) persistence of the log-rate
	mafSigma    = 0.28 // innovation scale
	mafSpikeP   = 0.01 // probability of a burst second
	mafSpikeMul = 3.0  // burst magnitude
)

// NewMAF returns a bursty, rate-modulated arrival source in the style of
// the Microsoft Azure Functions traces.
func NewMAF(meanQPS float64, r *rng.Rand) Arrivals {
	if !(meanQPS > 0) || math.IsInf(meanQPS, 0) {
		panic("trace: MAF meanQPS must be positive and finite")
	}
	// Stationary variance of the AR(1); subtracting half of it keeps the
	// mean rate at meanQPS despite the lognormal modulation.
	return &maf{
		r:       r,
		meanQPS: meanQPS,
		statVar: mafSigma * mafSigma / (1 - mafPhi*mafPhi),
	}
}

func (m *maf) Next() float64 {
	for m.next >= len(m.buf) {
		m.fillSecond()
	}
	v := m.buf[m.next]
	m.next++
	return v
}

// fillSecond draws the next second's rate and its Poisson arrival batch.
// Uniform offsets within the second are sorted before use; seconds never
// interleave, so the emitted stream is globally sorted.
func (m *maf) fillSecond() {
	m.x = mafPhi*m.x + mafSigma*m.r.Norm()
	rate := m.meanQPS * math.Exp(m.x-m.statVar/2)
	if m.r.Bool(mafSpikeP) {
		rate *= mafSpikeMul
	}
	k := m.r.Poisson(rate)
	base := float64(m.sec) * 1000
	m.sec++
	m.buf = m.buf[:0]
	m.next = 0
	for i := 0; i < k; i++ {
		m.buf = append(m.buf, base+m.r.Float64()*1000)
	}
	insertionSort(m.buf)
}

// MAF returns n arrival timestamps (ms) following the bursty MAF-style
// process.
func MAF(n int, meanQPS float64, r *rng.Rand) []float64 {
	return collect(NewMAF(meanQPS, r), n)
}

// collect materializes the first n arrivals of a source.
func collect(a Arrivals, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

// insertionSort sorts one second's arrival batch; batches are small and
// nearly random, and avoiding sort.Float64s keeps the hot path
// allocation-free.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// TargetQPS returns a sustainable mean request rate for the model at its
// default SLO, mirroring the paper's snippet-selection criterion that
// vanilla serving should not drop more than 20% of requests (§4.1). The
// rate is a fixed fraction of the capacity at the largest batch size that
// still fits within the SLO.
func TargetQPS(m *model.Model) float64 {
	slo := m.SLO()
	b := 1
	for b < 64 && m.Latency(b+1) <= slo {
		b++
	}
	capacity := float64(b) / m.Latency(b) * 1000 // requests per second
	// MAF traces are bursty (~2× swings around the mean), so the
	// sustainable mean rate sits well below raw capacity.
	return 0.30 * capacity
}
