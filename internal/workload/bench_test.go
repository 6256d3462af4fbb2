package workload

import (
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// BenchmarkIterNext times Iter.Next on the classification streams
// cluster-chaos serves, in ns per arrival (one Next per op): video-1 at
// its 30 fps frame rate, and amazon's MAF trace natively and under the
// "square:30/0.5/2" schedule, both at eight replicas of bert-base's
// sustainable rate, as core sizes an 8-replica amazon scenario. A pass
// over 100k requests restarts when it runs out.
func BenchmarkIterNext(b *testing.B) {
	const n = 100_000
	m, err := model.ByName("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	qps := 8 * trace.TargetQPS(m)
	square, err := trace.ParseSchedule("square:30/0.5/2")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, workload string
		qps            float64
		sched          trace.Schedule
	}{
		{"video", "video-1", 30, nil},
		{"amazon", "amazon", qps, nil},
		{"amazon-square", "amazon", qps, square},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := ByNameSched(c.workload, n, c.qps, 1, c.sched)
			if err != nil {
				b.Fatal(err)
			}
			it := s.Iter()
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := it.Next(); !ok {
					it = s.Iter()
				}
			}
		})
	}
}
