package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

func vanillaResNet() (*model.Model, *VanillaHandler) {
	m := model.ResNet50()
	return m, &VanillaHandler{Model: m}
}

func TestVanillaLowRateBatchOne(t *testing.T) {
	m, h := vanillaResNet()
	// 30fps with a 16.4ms model: Clockwork should serve almost entirely
	// at batch size 1 (the paper's CV observation, §4.5).
	s := workload.Video(0, 2000, 30, 1)
	stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	if stats.AvgBatch > 1.5 {
		t.Fatalf("avg batch %v at 30fps, want ~1", stats.AvgBatch)
	}
	if stats.DropRate > 0.01 {
		t.Fatalf("drop rate %v at a trivially sustainable rate", stats.DropRate)
	}
	lat := stats.Latencies()
	if lat.Median() < m.Latency(1) {
		t.Fatalf("median latency %v below pure serve time %v", lat.Median(), m.Latency(1))
	}
}

// TestVanishingRateNeverQueues is a metamorphic pin: at 0.05 fps each
// frame arrives ~20 s after the one before has left, so no request
// waits behind another. On Clockwork every latency is the batch-1
// service time. On TF-Serve every request also waits out the batch
// timeout, except the last, which is flushed at once because nothing
// more will arrive. A second pin rides along: doubling every replica's
// speed halves the service time, so a 2-replica cluster at speed 2
// serves each request in half the batch-1 time, and the batch timeout,
// which is not service time, stays whole.
func TestVanishingRateNeverQueues(t *testing.T) {
	const n = 300
	for _, m := range []*model.Model{model.ResNet18(), model.ResNet50()} {
		for _, p := range []Platform{Clockwork, TFServe} {
			t.Run(m.Name+"/"+p.String(), func(t *testing.T) {
				opts := Options{Platform: p, SLOms: m.SLO()}
				wait := 0.0
				if p == TFServe {
					wait = opts.withDefaults().BatchTimeoutMS
				}
				observe := func(speed float64) func(Result) {
					return func(r Result) {
						want := m.Latency(1) / speed
						if r.ID != n-1 {
							want += wait
						}
						// Arrival times reach ~6e6 ms, so latencies
						// computed as differences of absolute times
						// carry ~1e-9 ms of rounding.
						if r.Dropped || r.BatchSize != 1 || math.Abs(r.LatencyMS-want) > 1e-6 {
							t.Errorf("speed %v, request %d: dropped %v, batch %d, latency %v ms, want %v ms",
								speed, r.ID, r.Dropped, r.BatchSize, r.LatencyMS, want)
						}
					}
				}
				s := workload.Video(1, n, 0.05, 7)
				opts.Observer = observe(1)
				stats := Run(s.Iter(), &VanillaHandler{Model: m}, opts)
				if stats.Delivered != n {
					t.Fatalf("delivered %d of %d requests", stats.Delivered, n)
				}
				opts.Observer = observe(2)
				cs := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
					ClusterOptions{Options: opts, Replicas: 2, Speeds: []float64{2}})
				if cs.Merged.Delivered != n {
					t.Fatalf("speed 2: delivered %d of %d requests", cs.Merged.Delivered, n)
				}
			})
		}
	}
}

func TestClockworkRespectsSLO(t *testing.T) {
	m, h := vanillaResNet()
	qps := trace.TargetQPS(m)
	s := workload.Amazon(4000, qps, 2)
	stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	// Clockwork plans batches against the SLO: delivered requests should
	// essentially never miss it (drops absorb infeasibility).
	if stats.SLOMissRate > 0.001 {
		t.Fatalf("clockwork SLO miss rate %v, want ~0", stats.SLOMissRate)
	}
}

func TestClockworkDropsUnderOverload(t *testing.T) {
	m, h := vanillaResNet()
	// 10x the sustainable rate must induce drops.
	s := workload.Amazon(4000, 10*trace.TargetQPS(m), 3)
	stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	if stats.DropRate < 0.2 {
		t.Fatalf("drop rate %v under 10x overload, want substantial", stats.DropRate)
	}
}

func TestSnippetCriterionHolds(t *testing.T) {
	// §4.1: at TargetQPS, vanilla serving should drop < 20%.
	for _, m := range []*model.Model{model.BERTBase(), model.GPT2Medium()} {
		h := &VanillaHandler{Model: m}
		s := workload.Amazon(3000, trace.TargetQPS(m), 4)
		stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
		if stats.DropRate > 0.2 {
			t.Errorf("%s: drop rate %v > 20%% at target qps", m.Name, stats.DropRate)
		}
	}
}

func TestTFServeBatchSizeKnob(t *testing.T) {
	// Figure 2: smaller max_batch_size lowers delivered latency but
	// harms throughput (bursts overflow the bounded queue), while larger
	// max_batch_size absorbs bursts with bigger batches at higher
	// latency.
	m := model.BERTBase()
	h := &VanillaHandler{Model: m}
	qps := trace.TargetQPS(m)
	var prevBatch, prevMedian, prevDrops float64
	for i, mb := range []int{1, 4, 16} {
		s := workload.Amazon(4000, qps, 5)
		// TF-Serving accumulates batches up to batch_timeout; operators
		// scale the timeout with the target batch size.
		timeout := 1 + float64(mb-1)*1000/qps
		stats := Run(s.Iter(), h, Options{Platform: TFServe, SLOms: m.SLO(), MaxBatch: mb, BatchTimeoutMS: timeout})
		med := stats.Latencies().Median()
		if i > 0 {
			if stats.AvgBatch <= prevBatch {
				t.Errorf("max_batch %d: avg batch %v not above previous %v", mb, stats.AvgBatch, prevBatch)
			}
			if med <= prevMedian {
				t.Errorf("max_batch %d: median %v not above previous %v", mb, med, prevMedian)
			}
			if stats.DropRate > prevDrops {
				t.Errorf("max_batch %d: drop rate %v above previous %v (throughput should improve)",
					mb, stats.DropRate, prevDrops)
			}
		}
		prevBatch, prevMedian, prevDrops = stats.AvgBatch, med, stats.DropRate
	}
}

func TestTFServeDeliversEverythingAtLowRate(t *testing.T) {
	m := model.BERTBase()
	h := &VanillaHandler{Model: m}
	// A rate far below bs=1 capacity never overflows the queue.
	s := workload.Amazon(2000, 5, 6)
	stats := Run(s.Iter(), h, Options{Platform: TFServe, SLOms: m.SLO(), MaxBatch: 8})
	if stats.DropRate != 0 {
		t.Fatalf("tf-serve dropped requests at a trivial rate: %v", stats.DropRate)
	}
	if stats.Delivered != 2000 {
		t.Fatalf("delivered %d results, want 2000", stats.Delivered)
	}
}

func TestResultsCompleteAndConsistent(t *testing.T) {
	m, h := vanillaResNet()
	s := workload.Video(2, 1000, 30, 7)
	// The simulator keeps no per-request state; the Observer hook is the
	// streaming tap for raw results.
	seen := make(map[int]bool)
	var bad string
	stats := Run(s.Iter(), h, Options{
		Platform: Clockwork, SLOms: m.SLO(),
		Observer: func(r Result) {
			if seen[r.ID] {
				bad = fmt.Sprintf("request %d served twice", r.ID)
			}
			seen[r.ID] = true
			if !r.Dropped {
				if r.LatencyMS < r.ServeMS-1e-9 {
					bad = fmt.Sprintf("latency %v below serve time %v", r.LatencyMS, r.ServeMS)
				}
				if r.BatchSize < 1 {
					bad = fmt.Sprintf("bad batch size %d", r.BatchSize)
				}
			}
		},
	})
	if bad != "" {
		t.Fatal(bad)
	}
	if len(seen) != 1000 || stats.Total != 1000 {
		t.Fatalf("served %d distinct requests (stats.Total=%d), want 1000", len(seen), stats.Total)
	}
}

func TestVanillaAlwaysCorrect(t *testing.T) {
	m, h := vanillaResNet()
	s := workload.Video(0, 500, 30, 9)
	stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	if stats.Accuracy != 1.0 {
		t.Fatalf("vanilla accuracy %v, want 1", stats.Accuracy)
	}
}

func TestApparateLowersLatencyKeepsAccuracy(t *testing.T) {
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	s := workload.Video(0, 6000, 30, 11)

	vStats := Run(s.Iter(), &VanillaHandler{Model: m}, Options{Platform: Clockwork, SLOms: m.SLO()})
	h := NewApparate(model.ResNet50(), prof, 0.02, controller.Config{})
	aStats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})

	vMed := vStats.Latencies().Median()
	aMed := aStats.Latencies().Median()
	if aMed >= vMed {
		t.Fatalf("apparate median %v not below vanilla %v", aMed, vMed)
	}
	if aStats.Accuracy < 0.98 {
		t.Fatalf("apparate accuracy %v below constraint margin", aStats.Accuracy)
	}
	// Tail impact bounded by the 2% ramp budget (Figure 13).
	vP95 := vStats.Latencies().Percentile(95)
	aP95 := aStats.Latencies().Percentile(95)
	if aP95 > vP95*1.05 {
		t.Fatalf("apparate P95 %v exceeds vanilla %v by more than budget margin", aP95, vP95)
	}
}

func TestApparateThroughputPreserved(t *testing.T) {
	m := model.BERTBase()
	prof := exitsim.ProfileFor(m, exitsim.KindAmazon)
	qps := trace.TargetQPS(m)
	s := workload.Amazon(4000, qps, 12)
	vStats := Run(s.Iter(), &VanillaHandler{Model: m}, Options{Platform: Clockwork, SLOms: m.SLO()})
	h := NewApparate(model.BERTBase(), prof, 0.02, controller.Config{})
	aStats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	if aStats.ThroughputQPS < vStats.ThroughputQPS*0.97 {
		t.Fatalf("apparate throughput %v vs vanilla %v: more than 3%% loss",
			aStats.ThroughputQPS, vStats.ThroughputQPS)
	}
}

func TestStaticEEHandlerExits(t *testing.T) {
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	h := NewApparate(m, prof, 0.02, controller.Config{})
	static := &StaticEEHandler{Cfg: h.Cfg}
	for _, r := range static.Cfg.Active {
		r.Threshold = 0.3
	}
	s := workload.Video(0, 500, 30, 13)
	stats := Run(s.Iter(), static, Options{Platform: Clockwork, SLOms: m.SLO()})
	if stats.Exits == 0 {
		t.Fatal("static EE handler produced no exits")
	}
}

func TestPlatformStrings(t *testing.T) {
	if Clockwork.String() != "clockwork" || TFServe.String() != "tf-serve" {
		t.Fatal("bad platform strings")
	}
}

func TestThroughputPositive(t *testing.T) {
	m, h := vanillaResNet()
	s := workload.Video(0, 300, 30, 15)
	stats := Run(s.Iter(), h, Options{Platform: Clockwork, SLOms: m.SLO()})
	if stats.ThroughputQPS <= 0 || math.IsNaN(stats.ThroughputQPS) {
		t.Fatalf("throughput %v", stats.ThroughputQPS)
	}
}

func TestCatchUpBatchingDrainsBacklog(t *testing.T) {
	// A model whose bs=1 service time slightly exceeds the arrival
	// period runs at >100% utilization at batch 1; catch-up batching
	// must hold for imminent arrivals and drain the backlog with larger
	// batches instead of letting waits sawtooth into drops.
	m := &model.Model{
		Name: "knife-edge", Family: model.FamilyResNet,
		Graph: model.ResNet50().Graph, Params: 1,
		BaseLatencyMS: 10.2, BatchBeta: 0.06, NumBlocks: 16,
	}
	reqs := make([]workload.Request, 3000)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, ArrivalMS: float64(i) * 10} // 100 qps
	}
	src := workload.FromSlice("knife-edge", 0, reqs)
	stats := Run(src.Iter(), &VanillaHandler{Model: m}, Options{Platform: Clockwork, SLOms: 60})
	if stats.DropRate > 0.01 {
		t.Fatalf("drop rate %v at 102%% bs-1 utilization; catch-up batching should absorb it", stats.DropRate)
	}
	if stats.AvgBatch <= 1.01 {
		t.Fatalf("avg batch %v: no catch-up batching happened", stats.AvgBatch)
	}
}
