package serving

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// statsFingerprint renders every observable quantity of a Stats —
// counts, rates, makespan, and the full latency recorder surface — in
// full float precision, so two runs compare byte-identically.
func statsFingerprint(s *Stats) string {
	fp := fmt.Sprintf("total=%d delivered=%d drops=%d misses=%d correct=%d exits=%d "+
		"avgbatch=%v droprate=%v missrate=%v tput=%v acc=%v first=%v last=%v lat_len=%d",
		s.Total, s.Delivered, s.Drops, s.SLOMisses, s.Correct, s.Exits,
		s.AvgBatch, s.DropRate, s.SLOMissRate, s.ThroughputQPS, s.Accuracy,
		s.FirstArrivalMS, s.LastDoneMS, s.Lat.Len())
	if s.Lat.Len() > 0 {
		fp += fmt.Sprintf(" mean=%v min=%v max=%v", s.Lat.Mean(), s.Lat.Min(), s.Lat.Max())
		for p := 1; p <= 100; p++ {
			fp += fmt.Sprintf(" p%d=%v", p, s.Lat.Percentile(float64(p)))
		}
	}
	return fp
}

// TestClusterSingleReplicaEquivalence pins Run, and RunCluster at one
// replica, to refRun, the time-stepped single-replica loop Run used to
// be: identical Stats, identical recorder output, and an identical
// per-request Result stream from Run, from the cluster's one replica and
// from its merged view — across both platforms, both metrics modes,
// both handler kinds, and both workload families, each at a light rate
// with default batching and overloaded (3× trace.TargetQPS, max batch 4,
// batch timeout 5 ms, queue cap 8). The overloaded cases are where the
// policies' drop, queue-cap and batch-forming paths run: the test also
// asserts the matrix reached a TF-Serve queue-cap rejection and a video
// batch above 1.
func TestClusterSingleReplicaEquivalence(t *testing.T) {
	type handlerCase struct {
		name string
		mk   func(m *model.Model, kind exitsim.Kind) Handler
	}
	handlers := []handlerCase{
		{"vanilla", func(m *model.Model, _ exitsim.Kind) Handler {
			return &VanillaHandler{Model: m}
		}},
		{"apparate", func(m *model.Model, kind exitsim.Kind) Handler {
			return NewApparate(m, exitsim.ProfileFor(m, kind), 0.02, controller.Config{})
		}},
	}
	type wlCase struct {
		name   string
		m      *model.Model
		kind   exitsim.Kind
		stream *workload.Stream
		opts   Options
	}
	overload := Options{MaxBatch: 4, BatchTimeoutMS: 5, QueueCap: 8}
	resnet, bert := model.ResNet50(), model.BERTBase()
	workloads := []wlCase{
		{"video", resnet, exitsim.KindVideo, workload.Video(1, 4000, 45, 71), Options{}},
		{"amazon", bert, exitsim.KindAmazon, workload.Amazon(4000, 40, 72), Options{}},
		{"video-overload", resnet, exitsim.KindVideo, workload.Video(1, 4000, 3*trace.TargetQPS(resnet), 73), overload},
		{"amazon-overload", bert, exitsim.KindAmazon, workload.Amazon(4000, 3*trace.TargetQPS(bert), 74), overload},
	}
	var tfCapDrops, videoBatched bool
	for _, wl := range workloads {
		for _, platform := range []Platform{Clockwork, TFServe} {
			for _, mode := range []metrics.Mode{metrics.ModeExact, metrics.ModeSketch} {
				for _, hc := range handlers {
					name := fmt.Sprintf("%s/%s/%s/%s", wl.name, platform, mode, hc.name)
					t.Run(name, func(t *testing.T) {
						opts := wl.opts
						opts.Platform, opts.SLOms, opts.Metrics = platform, wl.m.SLO(), mode
						observed := func() (Options, *[]Result) {
							var rs []Result
							o := opts
							o.Observer = func(r Result) { rs = append(rs, r) }
							return o, &rs
						}

						refOpts, refResults := observed()
						ref := refRun(wl.stream.Iter(), hc.mk(wl.m, wl.kind), refOpts)
						runOpts, runResults := observed()
						single := Run(wl.stream.Iter(), hc.mk(wl.m, wl.kind), runOpts)
						clusterOpts, clusterResults := observed()
						cluster := RunCluster(wl.stream, func(int) Handler { return hc.mk(wl.m, wl.kind) },
							ClusterOptions{Options: clusterOpts, Replicas: 1, Dispatch: RoundRobin})

						if len(cluster.PerReplica) != 1 {
							t.Fatalf("single-replica cluster built %d replicas", len(cluster.PerReplica))
						}
						want := statsFingerprint(ref)
						for _, got := range []struct {
							name string
							st   *Stats
						}{{"Run", single}, {"replica 0", cluster.PerReplica[0]}, {"merged", cluster.Merged}} {
							if fp := statsFingerprint(got.st); fp != want {
								t.Fatalf("%s stats diverge from refRun:\n ref: %s\n got: %s", got.name, want, fp)
							}
						}
						sameResults(t, "Run", *refResults, *runResults)
						sameResults(t, "RunCluster", *refResults, *clusterResults)

						t.Logf("drops %d of %d, avg batch %.2f", ref.Drops, ref.Total, ref.AvgBatch)
						if platform == TFServe && ref.Drops > 0 {
							tfCapDrops = true
						}
						if wl.kind == exitsim.KindVideo && ref.AvgBatch > 1 {
							videoBatched = true
						}
					})
				}
			}
		}
	}
	if !tfCapDrops {
		t.Error("no case rejected a request at TF-Serve's queue cap")
	}
	if !videoBatched {
		t.Error("no video case formed a batch above 1")
	}
}

// sameResults fails on the first result where got's stream departs from
// want's.
func sameResults(t *testing.T, name string, want, got []Result) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s result stream has %d results, refRun %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s result %d diverges:\n ref: %+v\n got: %+v", name, i, want[i], got[i])
		}
	}
}
