package serving

import (
	"testing"

	"repro/internal/autoscale"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

func mustFaults(t *testing.T, spec string) *faults.Spec {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRetry(t *testing.T, spec string) faults.Retry {
	t.Helper()
	r, err := faults.ParseRetry(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// faultCluster runs a vanilla video cluster under the given fault
// options with a generous SLO (nothing drops for latency reasons).
func faultCluster(m *model.Model, n, replicas int, qps float64, seed uint64, sloMult float64, opts ClusterOptions) *ClusterStats {
	s := workload.Video(0, n, qps, seed)
	opts.Options.Platform = Clockwork
	opts.Options.SLOms = sloMult * m.SLO()
	opts.Replicas = replicas
	return RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts)
}

// TestFaultSeedDoesNotPerturbReliableRuns pins half of the
// no-perturbation contract: a run with the fault machinery disabled is
// byte-identical whatever FaultSeed says, because no fault stream is
// ever created, let alone drawn from. (The other half — faults=off
// equals the pre-fault simulator — is pinned by the golden sweep rows
// and the single-replica equivalence gate.)
func TestFaultSeedDoesNotPerturbReliableRuns(t *testing.T) {
	m := model.ResNet50()
	a := faultCluster(m, 2000, 2, 60, 71, 1, ClusterOptions{Dispatch: LeastLoaded})
	b := faultCluster(m, 2000, 2, 60, 71, 1, ClusterOptions{Dispatch: LeastLoaded, FaultSeed: 999})
	if a.Faults != nil || b.Faults != nil {
		t.Fatal("reliable runs must not activate fault mode")
	}
	if a.Merged.Total != b.Merged.Total || a.Merged.Drops != b.Merged.Drops ||
		a.Merged.Lat.Percentile(99) != b.Merged.Lat.Percentile(99) {
		t.Fatal("FaultSeed changed a reliable run")
	}
}

// TestFaultStreamLeavesWorkloadUnchanged pins the other direction at
// the request level: the requests a faulty run sees (IDs, arrival
// times, sample difficulties) are exactly the fault-free stream —
// fault draws come from labeled side streams, never from the workload
// seed.
func TestFaultStreamLeavesWorkloadUnchanged(t *testing.T) {
	m := model.ResNet50()
	type key struct {
		arrival    float64
		difficulty float64
	}
	collect := func(opts ClusterOptions) map[int]key {
		seen := map[int]key{}
		s := workload.Video(0, 1500, 60, 72)
		opts.Options = Options{Platform: Clockwork, SLOms: 10 * m.SLO()}
		opts.Replicas = 2
		it := s.Iter()
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			seen[r.ID] = key{r.ArrivalMS, r.Sample.Difficulty}
		}
		RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts)
		return seen
	}
	base := collect(ClusterOptions{})
	faulty := collect(ClusterOptions{
		Faults:    mustFaults(t, "crash:r1@2000+500;delaydist=exp:2;loss=0.01"),
		Retry:     mustRetry(t, "attempts=3"),
		FaultSeed: 7,
	})
	if len(base) != len(faulty) {
		t.Fatalf("stream lengths differ: %d vs %d", len(base), len(faulty))
	}
	for id, k := range base {
		if faulty[id] != k {
			t.Fatalf("request %d changed under faults: %+v vs %+v", id, k, faulty[id])
		}
	}
}

// TestCrashRequeuesAndAccountsDowntime is the basic crash/restart
// acceptance: a one-shot mid-run crash loses nothing (the dead
// replica's queue is requeued), no dispatch lands on the dead replica
// during its outage, and the availability metrics match the injected
// schedule exactly.
func TestCrashRequeuesAndAccountsDowntime(t *testing.T) {
	m := model.ResNet50()
	const crashAt, down = 2000.0, 500.0
	perReplica := make(map[int][]Result)
	// 150 fps over two replicas keeps real queues standing, so the
	// crash catches replica 1 with work to requeue.
	cs := faultCluster(m, 3000, 2, 150, 73, 10, ClusterOptions{
		Dispatch:  RoundRobin,
		Faults:    mustFaults(t, "crash:r1@2000+500"),
		FaultSeed: 1,
		ReplicaObserver: func(rep int, r Result) {
			perReplica[rep] = append(perReplica[rep], r)
		},
	})
	if cs.Faults == nil {
		t.Fatal("fault run reported no FaultStats")
	}
	if cs.Merged.Total != 3000 || cs.Merged.Drops != 0 {
		t.Fatalf("crash lost work: total %d, drops %d", cs.Merged.Total, cs.Merged.Drops)
	}
	if cs.Faults.Crashes != 1 {
		t.Fatalf("realized %d crashes, want 1", cs.Faults.Crashes)
	}
	if got := cs.Faults.DowntimeMS[1]; got != down {
		t.Fatalf("replica 1 downtime %g, want %g", got, down)
	}
	if got := cs.Faults.DowntimeMS[0]; got != 0 {
		t.Fatalf("replica 0 downtime %g, want 0", got)
	}
	if cs.Faults.UnavailMS != 0 {
		t.Fatalf("one live replica remained but UnavailMS = %g", cs.Faults.UnavailMS)
	}
	if cs.Faults.Retried == 0 {
		t.Fatal("crash requeued nothing despite a loaded queue")
	}
	if cs.Faults.Outages.Len() != 1 || cs.Faults.Outages.Max() != down {
		t.Fatalf("outage recorder %d entries max %g, want 1 entry of %g",
			cs.Faults.Outages.Len(), cs.Faults.Outages.Max(), down)
	}
	// No request that arrived during the outage may be served by the
	// dead replica.
	for _, r := range perReplica[1] {
		if r.ArrivalMS >= crashAt && r.ArrivalMS < crashAt+down {
			t.Fatalf("replica 1 served request %d that arrived at %g during its outage", r.ID, r.ArrivalMS)
		}
	}
}

// TestTotalOutageParksAndResumes pins the zero-live-replica path: with
// a single replica crashed, arrivals park at the dispatcher and are
// served after the restart; the unavailability window equals the
// injected downtime and nothing is lost.
func TestTotalOutageParksAndResumes(t *testing.T) {
	m := model.ResNet50()
	const down = 400.0
	cs := faultCluster(m, 2000, 1, 30, 74, 20, ClusterOptions{
		Dispatch:  RoundRobin,
		Faults:    mustFaults(t, "crash:r0@1000+400"),
		FaultSeed: 2,
	})
	if cs.Merged.Total != 2000 || cs.Merged.Drops != 0 || cs.Faults.Lost != 0 {
		t.Fatalf("total outage lost work: total %d drops %d lost %d",
			cs.Merged.Total, cs.Merged.Drops, cs.Faults.Lost)
	}
	if cs.Faults.UnavailMS != down {
		t.Fatalf("UnavailMS = %g, want %g", cs.Faults.UnavailMS, down)
	}
	if cs.Faults.DowntimeMS[0] != down {
		t.Fatalf("downtime %g, want %g", cs.Faults.DowntimeMS[0], down)
	}
}

// TestLossRetriesRecoverRequests: with heavy transit loss, a bounded
// retry budget turns lost requests into delivered ones; without it
// they are recorded Lost. Conservation holds either way: every request
// resolves exactly once.
func TestLossRetriesRecoverRequests(t *testing.T) {
	m := model.ResNet50()
	run := func(retry string) *ClusterStats {
		return faultCluster(m, 3000, 2, 60, 75, 10, ClusterOptions{
			Dispatch:  RoundRobin,
			Faults:    mustFaults(t, "loss=0.2;timeout=30"),
			Retry:     mustRetry(t, retry),
			FaultSeed: 3,
		})
	}
	plain, retried := run(""), run("attempts=4")
	if plain.Merged.Total != 3000 || retried.Merged.Total != 3000 {
		t.Fatalf("conservation violated: totals %d / %d, want 3000", plain.Merged.Total, retried.Merged.Total)
	}
	if plain.Faults.Lost == 0 {
		t.Fatal("20% loss with no retry lost nothing")
	}
	if plain.Merged.Lost != plain.Faults.Lost {
		t.Fatalf("merged lost %d != fault stats lost %d", plain.Merged.Lost, plain.Faults.Lost)
	}
	if retried.Faults.Lost*10 > plain.Faults.Lost {
		t.Fatalf("4 attempts left %d lost vs %d without retry; want ~p^4 reduction",
			retried.Faults.Lost, plain.Faults.Lost)
	}
	if retried.Faults.Retried == 0 {
		t.Fatal("retried run reported no retries")
	}
	if retried.Merged.Delivered <= plain.Merged.Delivered {
		t.Fatalf("retries delivered %d <= %d without", retried.Merged.Delivered, plain.Merged.Delivered)
	}
}

// TestNetworkDelayShiftsLatency pins the delay hop: a constant 5ms
// dispatcher→replica delay shifts the whole latency distribution by
// ~5ms under light load.
func TestNetworkDelayShiftsLatency(t *testing.T) {
	m := model.ResNet50()
	base := faultCluster(m, 2000, 2, 30, 76, 10, ClusterOptions{Dispatch: RoundRobin})
	delayed := faultCluster(m, 2000, 2, 30, 76, 10, ClusterOptions{
		Dispatch:  RoundRobin,
		Faults:    mustFaults(t, "delaydist=const:5"),
		FaultSeed: 4,
	})
	if delayed.Merged.Total != base.Merged.Total {
		t.Fatalf("delay changed request count: %d vs %d", delayed.Merged.Total, base.Merged.Total)
	}
	dm, bm := delayed.Merged.Lat.Mean(), base.Merged.Lat.Mean()
	if dm < bm+4 || dm > bm+8 {
		t.Fatalf("const:5 delay shifted mean latency by %g (from %g to %g), want ~5", dm-bm, bm, dm)
	}
}

// TestHedgingRescuesSlowReplica is where hedging earns its keep: on a
// heterogeneous cluster round-robin keeps feeding the slow replica,
// whose queue grows and drops; hedging duplicates the stragglers onto
// the fast replica, cutting both drops and the tail.
func TestHedgingRescuesSlowReplica(t *testing.T) {
	m := model.ResNet50()
	// The slow replica (0.6x) is still SLO-feasible at batch 1 — so
	// clockwork queues rather than insta-drops — but at 300 fps its
	// round-robin slice exceeds its batched capacity, so stragglers
	// pile up behind it and clockwork starts dropping them as hopeless.
	run := func(retry string) *ClusterStats {
		return faultCluster(m, 4000, 2, 300, 77, 2, ClusterOptions{
			Dispatch:  RoundRobin,
			Speeds:    []float64{1.5, 0.6},
			Retry:     mustRetry(t, retry),
			FaultSeed: 5,
		})
	}
	plain, hedged := run(""), run("hedge=50")
	if hedged.Faults == nil || hedged.Faults.Hedged == 0 {
		t.Fatal("hedge policy never hedged on an overloaded slow replica")
	}
	if hedged.Merged.Total != 4000 || plain.Merged.Total != 4000 {
		t.Fatalf("conservation violated: %d / %d", hedged.Merged.Total, plain.Merged.Total)
	}
	if hedged.Merged.Drops >= plain.Merged.Drops {
		t.Fatalf("hedging drops %d not below plain %d", hedged.Merged.Drops, plain.Merged.Drops)
	}
	if hedged.Merged.GoodputQPS <= plain.Merged.GoodputQPS {
		t.Fatalf("hedged goodput %g not above plain %g",
			hedged.Merged.GoodputQPS, plain.Merged.GoodputQPS)
	}
	// Hedging without cancellation wastes the losing copy's work; the
	// arbiter must account for every discarded duplicate.
	if hedged.Faults.Wasted == 0 || hedged.Faults.Wasted > hedged.Faults.Hedged {
		t.Fatalf("wasted-copy accounting off: %d wasted of %d hedges",
			hedged.Faults.Wasted, hedged.Faults.Hedged)
	}
}

// TestChurnConservesRequests: a sustained MTBF/MTTR churn process
// crashes replicas repeatedly; with no transit loss every request must
// still resolve exactly once (requeues, not losses), and the realized
// outage count must match the recorded crash count.
func TestChurnConservesRequests(t *testing.T) {
	m := model.ResNet50()
	seen := map[int]int{}
	cs := faultCluster(m, 6000, 3, 90, 78, 20, ClusterOptions{
		Dispatch:  LeastLoaded,
		Faults:    mustFaults(t, "mtbf:3000/400"),
		FaultSeed: 6,
		ReplicaObserver: func(_ int, r Result) {
			seen[r.ID]++
		},
	})
	if cs.Faults.Crashes == 0 {
		t.Fatal("churn process never crashed anything over a 100s trace")
	}
	if cs.Merged.Total != 6000 || cs.Merged.Drops != 0 {
		t.Fatalf("churn lost work: total %d drops %d", cs.Merged.Total, cs.Merged.Drops)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d resolved %d times", id, n)
		}
	}
	if cs.Faults.Outages.Len() != cs.Faults.Crashes {
		t.Fatalf("%d outages recorded for %d crashes", cs.Faults.Outages.Len(), cs.Faults.Crashes)
	}
	if cs.Faults.Downtime() <= 0 {
		t.Fatal("churn accrued no downtime")
	}
}

// TestFaultyRunsDeterministic pins determinism under the full fault
// stack: two identical faulty runs produce identical availability
// stats and latency distributions.
func TestFaultyRunsDeterministic(t *testing.T) {
	m := model.ResNet50()
	run := func() *ClusterStats {
		return faultCluster(m, 4000, 3, 90, 79, 5, ClusterOptions{
			Dispatch:  LeastLoaded,
			Faults:    mustFaults(t, "mtbf:4000/500;delaydist=lognormal:2,0.5;loss=0.05"),
			Retry:     mustRetry(t, "attempts=3/hedge=95"),
			FaultSeed: 11,
		})
	}
	a, b := run(), run()
	if a.Merged.Total != b.Merged.Total || a.Merged.Drops != b.Merged.Drops ||
		a.Merged.Lost != b.Merged.Lost {
		t.Fatalf("request accounting diverged: %+v vs %+v", a.Merged, b.Merged)
	}
	af, bf := a.Faults, b.Faults
	if af.Crashes != bf.Crashes || af.Lost != bf.Lost || af.Retried != bf.Retried ||
		af.Hedged != bf.Hedged || af.Wasted != bf.Wasted ||
		af.UnavailMS != bf.UnavailMS || af.Downtime() != bf.Downtime() {
		t.Fatalf("availability stats diverged: %+v vs %+v", af, bf)
	}
	for _, p := range []float64{50, 95, 99} {
		if a.Merged.Lat.Percentile(p) != b.Merged.Lat.Percentile(p) {
			t.Fatalf("p%g diverged: %g vs %g", p, a.Merged.Lat.Percentile(p), b.Merged.Lat.Percentile(p))
		}
	}
}

// TestScaleUpEndsOutage pins that capacity is capacity: when the only
// replica crashes for a long window, the autoscaler (seeing
// utilization forced to 1 and pessimistic latency samples) adds a
// fresh replica, and that scale-up — not the eventual restart — must
// flush the parked requests and close the unavailability window. The
// trace shows the scale_up before the outage_end it causes.
func TestScaleUpEndsOutage(t *testing.T) {
	m := model.ResNet50()
	const down = 10000.0
	s := workload.Video(0, 2000, 30, 81)
	tr := obs.NewTracer()
	cs := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, ClusterOptions{
		Options:   Options{Platform: Clockwork, SLOms: 60 * m.SLO(), Trace: tr},
		Dispatch:  RoundRobin,
		Autoscale: &autoscale.Config{Min: 1, Max: 2},
		Faults:    mustFaults(t, "crash:r0@2000+10000"),
		FaultSeed: 14,
	})
	if cs.Scale.Ups() == 0 {
		t.Fatal("autoscaler never reacted to the outage")
	}
	if cs.Merged.Total != 2000 || cs.Merged.Drops != 0 {
		t.Fatalf("outage lost work: total %d drops %d", cs.Merged.Total, cs.Merged.Drops)
	}
	if cs.Faults.UnavailMS >= down {
		t.Fatalf("unavailability %g spans the whole %gms outage despite a scale-up",
			cs.Faults.UnavailMS, down)
	}
	if cs.Faults.UnavailMS <= 0 {
		t.Fatal("zero-live window never recorded before the scale-up")
	}
	var kinds []obs.Kind
	for _, e := range tr.Events {
		if e.Kind == obs.KindScaleUp || e.Kind == obs.KindOutageEnd {
			kinds = append(kinds, e.Kind)
		}
	}
	if len(kinds) < 2 || kinds[0] != obs.KindScaleUp || kinds[1] != obs.KindOutageEnd {
		t.Fatalf("scale_up and outage_end events in trace order: %v, want the scale_up first", kinds)
	}
}

// TestChurnWithAutoscaleConservesRequests drives the messiest
// composition — periodic churn over an elastic cluster, where replicas
// are created, retired, crashed, and revived in every order — and
// holds the core invariant: every request resolves exactly once.
func TestChurnWithAutoscaleConservesRequests(t *testing.T) {
	m := model.ResNet50()
	seen := map[int]int{}
	cs := RunCluster(workload.Video(0, 6000, 120, 82),
		func(int) Handler { return &VanillaHandler{Model: m} }, ClusterOptions{
			Options:   Options{Platform: Clockwork, SLOms: 20 * m.SLO()},
			Dispatch:  LeastLoaded,
			Autoscale: &autoscale.Config{Min: 1, Max: 3},
			Faults:    mustFaults(t, "mtbf:4000/600"),
			Retry:     mustRetry(t, "attempts=3"),
			FaultSeed: 15,
			ReplicaObserver: func(_ int, r Result) {
				seen[r.ID]++
			},
		})
	if cs.Faults.Crashes == 0 {
		t.Fatal("churn never crashed anything")
	}
	if cs.Merged.Total != 6000 {
		t.Fatalf("resolved %d requests, want 6000", cs.Merged.Total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d resolved %d times", id, n)
		}
	}
}

// TestGoodputUnderFaults: goodput (delivered-within-SLO per second)
// must degrade when faults are injected and be reported on both the
// merged stats and per-replica.
func TestGoodputUnderFaults(t *testing.T) {
	m := model.ResNet50()
	base := faultCluster(m, 4000, 2, 60, 80, 1, ClusterOptions{Dispatch: RoundRobin})
	faulty := faultCluster(m, 4000, 2, 60, 80, 1, ClusterOptions{
		Dispatch:  RoundRobin,
		Faults:    mustFaults(t, "crash:r0@2000+3000;loss=0.05"),
		FaultSeed: 12,
	})
	if base.Merged.GoodputQPS <= 0 {
		t.Fatal("reliable run reported zero goodput")
	}
	if faulty.Merged.GoodputQPS >= base.Merged.GoodputQPS {
		t.Fatalf("faulty goodput %g not below reliable %g",
			faulty.Merged.GoodputQPS, base.Merged.GoodputQPS)
	}
}

// TestRequeueAtCompletionInstantIsServed: a request requeued onto a
// replica at the very instant that replica's batch completes is served,
// not stranded. Replica 0 (speed 1, 6.5 ms per resnet18 batch of one)
// finishes its second batch at exactly 13 ms with an empty queue, and
// the crash of replica 1 (speed 0.25, still serving request 1) at 13 ms
// requeues request 3 to it. No arrival follows, so unless the enqueue
// schedules a wake, nothing serves request 3 and the run's end records
// it lost.
func TestRequeueAtCompletionInstantIsServed(t *testing.T) {
	m := model.ResNet18()
	reqs := []workload.Request{{ID: 0, ArrivalMS: 0}, {ID: 1, ArrivalMS: 0}, {ID: 2, ArrivalMS: 1}, {ID: 3, ArrivalMS: 1}}
	cs := RunCluster(workload.FromSlice("requeue-at-completion", exitsim.KindVideo, reqs),
		func(int) Handler { return &VanillaHandler{Model: m} }, ClusterOptions{
			Options:  Options{Platform: Clockwork, SLOms: 1000},
			Replicas: 2,
			Dispatch: RoundRobin,
			Speeds:   []float64{1, 0.25},
			Faults:   mustFaults(t, "crash:r1@13+100"),
		})
	if cs.Faults.Crashes != 1 || cs.Faults.Retried == 0 {
		t.Fatalf("%d crashes and %d requeues, want the crash to requeue a request", cs.Faults.Crashes, cs.Faults.Retried)
	}
	if cs.Merged.Delivered != 4 || cs.Faults.Lost != 0 {
		t.Fatalf("%d delivered and %d lost, want all 4 delivered", cs.Merged.Delivered, cs.Faults.Lost)
	}
}
