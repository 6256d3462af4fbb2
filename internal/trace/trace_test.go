package trace

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rng"
)

// collect materializes the first n arrivals of a source.
func collect(a Arrivals, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

func TestFixedRateSpacing(t *testing.T) {
	a := collect(NewFixedRate(30), 5)
	if len(a) != 5 {
		t.Fatalf("len = %d, want 5", len(a))
	}
	want := 1000.0 / 30
	for i := 1; i < len(a); i++ {
		if math.Abs(a[i]-a[i-1]-want) > 1e-9 {
			t.Fatalf("spacing %v, want %v", a[i]-a[i-1], want)
		}
	}
}

func TestFixedRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixedRate(0 qps) did not panic")
		}
	}()
	NewFixedRate(0)
}

// TestSourcesRejectNonFiniteRate pins the constructors' guard: a rate
// that is not positive and finite panics at once. NaN slipped past the
// old <= 0 checks, and a NaN or infinite rate left the per-second
// sources (MAF, scheduled) spinning forever in their fill loop.
func TestSourcesRejectNonFiniteRate(t *testing.T) {
	sched := &SineSchedule{PeriodSec: 60, Min: 0.5, Max: 2}
	sources := []struct {
		name string
		mk   func(qps float64) Arrivals
	}{
		{"fixed", NewFixedRate},
		{"poisson", func(q float64) Arrivals { return NewPoisson(q, rng.New(1)) }},
		{"maf", func(q float64) Arrivals { return NewMAF(q, rng.New(1)) }},
		{"scheduled", func(q float64) Arrivals { return NewScheduled(q, sched, rng.New(1)) }},
	}
	for _, src := range sources {
		for _, qps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s/%g", src.name, qps), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s source accepted rate %g", src.name, qps)
					}
				}()
				src.mk(qps)
			})
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	r := rng.New(1)
	const n = 50000
	a := collect(NewPoisson(100, r), n)
	// Duration should be ~ n/rate seconds = 500s = 5e5 ms.
	dur := a[n-1] / 1000
	want := float64(n) / 100
	if math.Abs(dur-want) > 0.05*want {
		t.Fatalf("Poisson duration %vs, want ~%vs", dur, want)
	}
}

func TestPoissonSorted(t *testing.T) {
	a := collect(NewPoisson(50, rng.New(2)), 1000)
	if !sort.Float64sAreSorted(a) {
		t.Fatal("Poisson arrivals not sorted")
	}
}

func TestMAFSortedAndPositive(t *testing.T) {
	check := func(seed uint64) bool {
		a := collect(NewMAF(80, rng.New(seed)), 2000)
		if len(a) != 2000 {
			return false
		}
		if !sort.Float64sAreSorted(a) {
			return false
		}
		for _, v := range a {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMAFMeanRateApproximate(t *testing.T) {
	r := rng.New(3)
	const n = 100000
	a := collect(NewMAF(100, r), n)
	durSec := a[n-1] / 1000
	rate := float64(n) / durSec
	if rate < 60 || rate > 160 {
		t.Fatalf("MAF realized rate %v qps, want within [60,160] for mean 100", rate)
	}
}

func TestMAFBurstier(t *testing.T) {
	// The MAF trace must exhibit substantially higher inter-arrival
	// variability than Poisson at the same mean rate (burstiness).
	cv := func(a []float64) float64 {
		gaps := make([]float64, len(a)-1)
		sum := 0.0
		for i := 1; i < len(a); i++ {
			gaps[i-1] = a[i] - a[i-1]
			sum += gaps[i-1]
		}
		mean := sum / float64(len(gaps))
		varr := 0.0
		for _, g := range gaps {
			varr += (g - mean) * (g - mean)
		}
		varr /= float64(len(gaps))
		return math.Sqrt(varr) / mean
	}
	maf := collect(NewMAF(100, rng.New(4)), 30000)
	poi := collect(NewPoisson(100, rng.New(4)), 30000)
	if cv(maf) <= cv(poi) {
		t.Fatalf("MAF cv %v not burstier than Poisson cv %v", cv(maf), cv(poi))
	}
}

func TestTargetQPSSustainable(t *testing.T) {
	for _, m := range model.ClassificationModels() {
		qps := TargetQPS(m)
		if qps <= 0 {
			t.Errorf("%s: non-positive target qps", m.Name)
		}
		// The target must be below the single-stream capacity at the
		// largest SLO-respecting batch size.
		slo := m.SLO()
		b := 1
		for b < 64 && m.Latency(b+1) <= slo {
			b++
		}
		capacity := float64(b) / m.Latency(b) * 1000
		if qps >= capacity {
			t.Errorf("%s: target %v >= capacity %v", m.Name, qps, capacity)
		}
	}
}

func TestTargetQPSScalesDown(t *testing.T) {
	// Heavier models must get lower target rates.
	small := TargetQPS(model.Distilbert())
	big := TargetQPS(model.GPT2Medium())
	if big >= small {
		t.Fatalf("gpt2 target %v not below distilbert target %v", big, small)
	}
}
