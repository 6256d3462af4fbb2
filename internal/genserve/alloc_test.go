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
// and token buffers are reused across sequences, so the classic path's
// cost is setup only; the KV runtime adds exactly one kvSeq per
// sequence (its admission-queue entry). Budgets are measured values
// padded ~3x; a reintroduced per-sequence or per-token allocation costs
// O(n) and trips them at the larger size.

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

// TestRunClassicAllocBudget pins the classic slot path: one fixed
// budget at both stream sizes, so the per-sequence cost must be zero.
func TestRunClassicAllocBudget(t *testing.T) {
	const budget = 100 // measured: 17 vanilla, 33 apparate
	for _, p := range allocPolicies {
		for _, n := range []int{200, 2000} {
			avg := runAllocs(n, 0, p.pol)
			t.Logf("classic %s: %.0f allocs per %d-sequence run", p.name, avg, n)
			if avg > budget {
				t.Errorf("classic %s run of %d sequences allocated %.0f times, budget %d — a per-sequence allocation crept back into the generative hot path",
					p.name, n, avg, budget)
			}
		}
	}
}

// TestRunKVAllocBudget pins the KV-block runtime at 96 blocks: one
// kvSeq per sequence plus a fixed budget.
func TestRunKVAllocBudget(t *testing.T) {
	const fixed = 150 // measured: n+35 vanilla, n+51 apparate
	for _, p := range allocPolicies {
		for _, n := range []int{200, 2000} {
			avg := runAllocs(n, 96, p.pol)
			t.Logf("kv %s: %.0f allocs per %d-sequence run", p.name, avg, n)
			if budget := float64(n + fixed); avg > budget {
				t.Errorf("kv %s run of %d sequences allocated %.0f times, budget n+%d — more than one allocation per sequence",
					p.name, n, avg, fixed)
			}
		}
	}
}

// BenchmarkEngineRun times a whole generative run of 500 sequences —
// t5-large's cnn-dailymail stream at the saturating rate, exact TPT
// recorder as in core's scenarios — on the classic path and a 96-block
// KV pool, for each policy. ns/token divides the run by its tokens.
func BenchmarkEngineRun(b *testing.B) {
	s := allocStream(500)
	for _, rt := range []struct {
		name     string
		kvBlocks int
	}{{"classic", 0}, {"kv", 96}} {
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
