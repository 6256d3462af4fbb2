package repro

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// BenchmarkClusterScaling measures RunCluster's cost as the replica
// count grows with the aggregate arrival rate (per-replica load held
// constant): 100k requests over 1, 4, and 16 replicas under both
// dispatch policies. The per-replica trace-replay design paid
// O(replicas × trace) — every replica re-generated and re-filtered the
// full stream — so its wall time grew with the replica count even at
// fixed per-replica work; the single-pass event engine visits each
// request once (O(trace × log replicas)). BENCH_cluster.json is a
// static record of its earlier before/after runs; nothing regenerates
// it.
func BenchmarkClusterScaling(b *testing.B) {
	const n = 100_000
	m := model.ResNet18()
	for _, disp := range []serving.Dispatch{serving.RoundRobin, serving.LeastLoaded} {
		for _, replicas := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("dispatch=%s/replicas=%d", disp, replicas), func(b *testing.B) {
				s := workload.Video(0, n, 30*float64(replicas), 9)
				opts := serving.ClusterOptions{
					Options:  serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()},
					Replicas: replicas,
					Dispatch: disp,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs := serving.RunCluster(s, func(int) serving.Handler {
						return &serving.VanillaHandler{Model: m}
					}, opts)
					if cs.Merged.Total != n {
						b.Fatalf("cluster served %d requests, want %d", cs.Merged.Total, n)
					}
				}
			})
		}
	}
}
