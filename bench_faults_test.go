package repro

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// BenchmarkFaultInjection measures the fault subsystem's overhead on
// the cluster runtime: 100k requests over 1, 4, and 16 replicas
// (aggregate rate scaled with width), reliable versus a full fault
// stack (periodic churn + exponential network delay + transit loss
// with retries). faults=off is expected to track
// BenchmarkClusterScaling — the fault path is guarded out of the hot
// loop — and the faulty runs bound what a chaos study costs per
// request. BENCH_faults.json is a static record of its earlier
// before/after runs; nothing regenerates it.
func BenchmarkFaultInjection(b *testing.B) {
	const n = 100_000
	m := model.ResNet18()
	spec, err := faults.Parse("mtbf:20000/1000;delaydist=exp:1;loss=0.001")
	if err != nil {
		b.Fatal(err)
	}
	retry, err := faults.ParseRetry("attempts=3")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "faulty"} {
		for _, replicas := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("faults=%s/replicas=%d", mode, replicas), func(b *testing.B) {
				s := workload.Video(0, n, 30*float64(replicas), 9)
				opts := serving.ClusterOptions{
					Options:  serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()},
					Replicas: replicas,
					Dispatch: serving.LeastLoaded,
				}
				if mode == "faulty" {
					opts.Faults, opts.Retry, opts.FaultSeed = spec, retry, 9
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs := serving.RunCluster(s, func(int) serving.Handler {
						return &serving.VanillaHandler{Model: m}
					}, opts)
					if cs.Merged.Total != n {
						b.Fatalf("cluster resolved %d requests, want %d", cs.Merged.Total, n)
					}
				}
			})
		}
	}
}
