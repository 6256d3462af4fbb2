package genserve

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The alloc pins below gate a whole generative run the way
// internal/serving/alloc_test.go gates the classification runtimes. In
// sketch mode the TPT recorder is O(1), vanilla draws no token samples,
// the admission queue holds arrivals by value, and completed sequences
// are reused with their token buffers, so a run's cost is setup only,
// with or without a KV pool. The budget is the measured values padded;
// a reintroduced per-sequence or per-token allocation costs O(n) and
// trips it at the larger size.

// allocStream is t5-large's cnn-dailymail stream at the paper's
// saturating rate, for kvEngine's t5-large engine.
func allocStream(n int) *workload.GenStream {
	return workload.CNNDailyMail(n, trace.TargetQPS(model.T5Large()), 7)
}

// runAllocs returns the allocations of one whole run of n sequences,
// the policy built inside the measured closure as core builds it.
func runAllocs(n, kvBlocks int, newPol func(*Engine) Policy) float64 {
	s := allocStream(n)
	e := kvEngine()
	e.Metrics = metrics.ModeSketch
	e.KVBlocks = kvBlocks
	return testing.AllocsPerRun(3, func() { e.Run(s, newPol(e)) })
}

var allocPolicies = []struct {
	name string
	pol  func(*Engine) Policy
}{
	{"vanilla", func(*Engine) Policy { return VanillaGen{} }},
	{"apparate", func(e *Engine) Policy { return NewApparateGen(e.Model, e.Profile, 0.01) }},
}

// checkRunAllocBudget pins whole runs on a pool of kvBlocks blocks: one
// fixed budget at both stream sizes, so the per-sequence cost must be
// zero.
func checkRunAllocBudget(t *testing.T, kvBlocks int) {
	t.Helper()
	const budget = 100
	for _, p := range allocPolicies {
		for _, n := range []int{200, 2000} {
			avg := runAllocs(n, kvBlocks, p.pol)
			t.Logf("%s: %.0f allocs per %d-sequence run", p.name, avg, n)
			if avg > budget {
				t.Errorf("%s run of %d sequences on pool %d allocated %.0f times, budget %d — a per-sequence allocation crept back into the generative hot path",
					p.name, n, kvBlocks, avg, budget)
			}
		}
	}
}

// TestRunClassicAllocBudget pins a classic engine, one with no KV knob,
// which runs on an unbounded pool. Measured: 54–75 allocations.
func TestRunClassicAllocBudget(t *testing.T) { checkRunAllocBudget(t, 0) }

// TestRunKVAllocBudget pins a 96-block pool. Measured: 37–57
// allocations.
func TestRunKVAllocBudget(t *testing.T) { checkRunAllocBudget(t, 96) }

// BenchmarkEngineRun times a whole generative run of 500 sequences —
// t5-large's cnn-dailymail stream at the saturating rate, exact TPT
// recorder as in core's scenarios — on an unbounded pool and a 96-block
// KV pool, for each policy. ns/token divides the run by its tokens.
func BenchmarkEngineRun(b *testing.B) {
	s := allocStream(500)
	for _, rt := range []struct {
		name     string
		kvBlocks int
	}{{"unbounded", 0}, {"kv", 96}} {
		for _, p := range allocPolicies {
			b.Run(rt.name+"/"+p.name, func(b *testing.B) {
				e := kvEngine()
				e.KVBlocks = rt.kvBlocks
				b.ReportAllocs()
				tokens := 0
				for b.Loop() {
					tokens += e.Run(s, p.pol(e)).TotalTokens
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
			})
		}
	}
}
