package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/workload"
)

// BenchmarkObsOverhead measures the observability layer's cost on the
// cluster hot path: the same 100k-request, 4-replica run as
// BenchmarkClusterScaling, untraced (obs=off), with the lifecycle
// trace streamed as JSONL (obs=trace), and with trace plus timeline
// sampling (obs=trace+timeline), both streamed into io.Discard the way
// apparate-serve and apparate-sweep stream them into files. The traced
// rows bound the per-request cost of a fully observed study. Every
// emission site is one nil check, so an untraced run allocates for
// setup only; the AllocsPerRun budgets in internal/serving pin that. BENCH_obs.json is a static record of
// earlier runs; nothing regenerates it.
func BenchmarkObsOverhead(b *testing.B) {
	const n = 100_000
	const replicas = 4
	m := model.ResNet18()
	cases := []struct {
		name string
		mk   func() (*obs.Tracer, *obs.Timeline)
	}{
		{"obs=off", func() (*obs.Tracer, *obs.Timeline) { return nil, nil }},
		{"obs=trace", func() (*obs.Tracer, *obs.Timeline) { return obs.NewTracerTo(io.Discard, nil), nil }},
		{"obs=trace+timeline", func() (*obs.Tracer, *obs.Timeline) {
			return obs.NewTracerTo(io.Discard, nil), obs.NewTimelineTo(io.Discard, 0, m.SLO())
		}},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/replicas=%d", tc.name, replicas), func(b *testing.B) {
			s := workload.Video(0, n, 30*float64(replicas), 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, tl := tc.mk()
				opts := serving.ClusterOptions{
					Options: serving.Options{
						Platform: serving.Clockwork, SLOms: m.SLO(),
						Trace: tr, Timeline: tl,
					},
					Replicas: replicas,
					Dispatch: serving.RoundRobin,
				}
				cs := serving.RunCluster(s, func(int) serving.Handler {
					return &serving.VanillaHandler{Model: m}
				}, opts)
				if cs.Merged.Total != n {
					b.Fatalf("cluster served %d requests, want %d", cs.Merged.Total, n)
				}
				flush(b, tr, tl)
			}
		})
	}
}

// flush ends a streamed run's sinks, either of which may be nil, and
// fails b unless the tracer emitted events.
func flush(b *testing.B, tr *obs.Tracer, tl *obs.Timeline) {
	if tr == nil {
		return
	}
	if tr.Len() == 0 {
		b.Fatal("traced run emitted no events")
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	if tl != nil {
		if err := tl.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenObsOverhead measures the observability layer's cost on
// the generative KV hot path: BenchmarkGenKV's saturated
// kv=48/prefix=0.5/chunk=256 configuration, untraced (gen-obs=off),
// with the sequence-lifecycle trace streamed as JSONL (gen-obs=trace),
// and with trace plus KV-pool timeline sampling
// (gen-obs=trace+timeline), both streamed into io.Discard. That an
// untraced run allocates for setup only is pinned by the AllocsPerRun
// budgets in internal/genserve.
func BenchmarkGenObsOverhead(b *testing.B) {
	const (
		n    = 200
		qps  = 6
		seed = 11
	)
	cfg := core.Config{KVBlocks: 48, PrefixHitRatio: 0.5, PrefillChunkTokens: 256, Seed: seed}
	cases := []struct {
		name string
		mk   func() (*obs.Tracer, *obs.Timeline)
	}{
		{"gen-obs=off", func() (*obs.Tracer, *obs.Timeline) { return nil, nil }},
		{"gen-obs=trace", func() (*obs.Tracer, *obs.Timeline) { return obs.NewTracerTo(io.Discard, nil), nil }},
		{"gen-obs=trace+timeline", func() (*obs.Tracer, *obs.Timeline) {
			return obs.NewTracerTo(io.Discard, nil), obs.NewTimelineTo(io.Discard, 0, 0)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			g := core.NewGen(model.T5Large(), exitsim.KindCNNDailyMail, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, tl := tc.mk()
				g.Engine.Trace, g.Engine.Timeline = tr, tl
				last := g.Serve(workload.CNNDailyMail(n, qps, seed))
				if last.Seqs != n {
					b.Fatalf("served %d sequences, want %d", last.Seqs, n)
				}
				flush(b, tr, tl)
			}
		})
	}
}
