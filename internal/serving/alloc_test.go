package serving

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// The alloc pins below are regression gates for the zero-alloc hot
// path: a whole simulation run — thousands of requests — must stay
// within a small fixed allocation budget, because every per-event and
// per-request allocation was hoisted into reused buffers (engine event
// freelist, head-index queues, pend table, sketch windows). Budgets are
// measured values padded ~3x so innocuous churn (map resizes inside the
// runtime, one-off growth) never flakes, while any reintroduced
// per-event allocation — which costs O(requests) — trips them
// immediately.

// TestRunSteadyStateAllocBudget pins Run, the cluster runtime at width
// one, in sketch mode: the per-request cost must be zero allocations, so
// the whole 2000-request run stays within a fixed setup-only budget.
func TestRunSteadyStateAllocBudget(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(1, 2000, 60, 91)
	opts := Options{Platform: Clockwork, SLOms: m.SLO(), Metrics: metrics.ModeSketch}
	const budget = 50 // measured: 27
	avg := testing.AllocsPerRun(5, func() {
		Run(s.Iter(), &VanillaHandler{Model: m}, opts)
	})
	t.Logf("serving.Run: %.0f allocs per 2000-request run", avg)
	if avg > budget {
		t.Fatalf("serving.Run allocated %.0f times per run, budget %d — a per-request allocation crept back into the hot path", avg, budget)
	}
}

// TestRunClusterSteadyStateAllocBudget pins the reliable cluster path
// (obs off, no faults): allocations must scale with replica count, not
// request count.
func TestRunClusterSteadyStateAllocBudget(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(1, 2000, 60, 92)
	opts := ClusterOptions{
		Options:  Options{Platform: Clockwork, SLOms: m.SLO(), Metrics: metrics.ModeSketch},
		Replicas: 4,
		Dispatch: RoundRobin,
	}
	const budget = 150 // measured: 50
	avg := testing.AllocsPerRun(5, func() {
		RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts)
	})
	t.Logf("RunCluster reliable: %.0f allocs per 2000-request run", avg)
	if avg > budget {
		t.Fatalf("RunCluster allocated %.0f times per run, budget %d — a per-request allocation crept back into the reliable path", avg, budget)
	}
}

// TestRunClusterFaultyAllocBudget pins the fault-arbiter path: the
// direct-mapped pend table and op-coded fault events must keep the
// per-request cost at zero even with churn, delays, and loss active.
func TestRunClusterFaultyAllocBudget(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(1, 2000, 60, 93)
	opts := ClusterOptions{
		Options:   Options{Platform: Clockwork, SLOms: m.SLO(), Metrics: metrics.ModeSketch},
		Replicas:  4,
		Dispatch:  RoundRobin,
		Faults:    mustFaults(t, "mtbf:3000/400;delaydist=exp:2;loss=0.02"),
		FaultSeed: 11,
	}
	const budget = 450 // measured: 148
	avg := testing.AllocsPerRun(5, func() {
		RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts)
	})
	t.Logf("RunCluster faulty: %.0f allocs per 2000-request run", avg)
	if avg > budget {
		t.Fatalf("faulty RunCluster allocated %.0f times per run, budget %d — a per-request allocation crept back into the fault arbiter", avg, budget)
	}
}
