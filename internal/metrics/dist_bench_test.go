package metrics

import (
	"testing"

	"repro/internal/rng"
)

// benchSamples is a scenario-sized run of latency samples.
const benchSamples = 20000

func benchValues() []float64 {
	r := rng.New(1)
	vals := make([]float64, benchSamples)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	return vals
}

// BenchmarkRecorderAdd times filling a fresh recorder with a
// scenario-sized stream of samples, as the serving and generative
// runtimes do, for the exact and sketched implementations.
func BenchmarkRecorderAdd(b *testing.B) {
	vals := benchValues()
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				r := NewRecorder(mode, 4096)
				for _, v := range vals {
					r.Add(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/add")
		})
	}
}
