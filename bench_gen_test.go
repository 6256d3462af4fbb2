package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkGenKV measures the generative serving engine across the
// KV-block memory axes: an unbounded pool with no KV knob (kv=off), a
// bounded pool with and without the prefix cache, and a deliberately
// saturated small pool with chunked prefill that realizes preemptions.
// Beyond ns/op, each case reports the engine's own observables (tok/s,
// kv_util, prefix_hits, preempts, queue_ms) so BENCH_gen.json records
// what the memory model did, not just what it cost. The kv=off row
// prices the one runtime with no pool to account for.
func BenchmarkGenKV(b *testing.B) {
	const (
		n    = 200
		qps  = 6
		seed = 11
	)
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"kv=off", core.Config{}},
		{"kv=96/prefix=0", core.Config{KVBlocks: 96, Seed: seed}},
		{"kv=96/prefix=0.5", core.Config{KVBlocks: 96, PrefixHitRatio: 0.5, Seed: seed}},
		{"kv=48/prefix=0.5/chunk=256", core.Config{
			KVBlocks: 48, PrefixHitRatio: 0.5, PrefillChunkTokens: 256, Seed: seed,
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			g := core.NewGen(model.T5Large(), exitsim.KindCNNDailyMail, tc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			var last = g.Serve(workload.CNNDailyMail(n, qps, seed))
			for i := 1; i < b.N; i++ {
				last = g.Serve(workload.CNNDailyMail(n, qps, seed))
			}
			if last.Seqs != n {
				b.Fatalf("served %d sequences, want %d", last.Seqs, n)
			}
			b.ReportMetric(last.TokensPerSec, "tok/s")
			b.ReportMetric(last.KVUtil, "kv_util")
			b.ReportMetric(float64(last.PrefixHits), "prefix_hits")
			b.ReportMetric(float64(last.Preemptions), "preempts")
			b.ReportMetric(last.QueueMS, "queue_ms")
		})
	}
}
