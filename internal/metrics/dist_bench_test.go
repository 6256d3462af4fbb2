package metrics

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// naiveDist is the pre-refactor Dist: every percentile query after an
// add re-sorts the entire sample slice. Kept here as the benchmark
// baseline proving the merge-sorted-runs win for interleaved add/query
// workloads (adaptation loops query percentiles every window while
// samples keep streaming in).
type naiveDist struct {
	samples []float64
	sorted  bool
}

func (d *naiveDist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

func (d *naiveDist) Percentile(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	rank := int(p / 100 * float64(len(d.samples)-1))
	return d.samples[rank]
}

// interleavedWorkload: bursts of adds with a percentile query after each
// burst — the pattern serving Stats and the controller's windows produce.
const (
	benchBursts   = 200
	benchBurstLen = 100
)

func benchValues() []float64 {
	r := rng.New(1)
	vals := make([]float64, benchBursts*benchBurstLen)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	return vals
}

func BenchmarkDistInterleavedNaive(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		d := &naiveDist{}
		k := 0
		for burst := 0; burst < benchBursts; burst++ {
			for j := 0; j < benchBurstLen; j++ {
				d.Add(vals[k])
				k++
			}
			sink += d.Percentile(99)
		}
	}
	_ = sink
}

func BenchmarkDistInterleavedMerge(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		d := NewDist(len(vals))
		k := 0
		for burst := 0; burst < benchBursts; burst++ {
			for j := 0; j < benchBurstLen; j++ {
				d.Add(vals[k])
				k++
			}
			sink += d.Percentile(99)
		}
	}
	_ = sink
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
