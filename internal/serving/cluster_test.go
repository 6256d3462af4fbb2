package serving

import (
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestClusterSustainsHigherRate(t *testing.T) {
	m := model.BERTBase()
	// 2x the single-replica target overloads one replica badly but
	// should be comfortable for three.
	qps := trace.TargetQPS(m) * 2
	s := workload.Amazon(6000, qps, 51)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}

	single := Run(s.Iter(), &VanillaHandler{Model: m}, opts)
	cluster := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
		ClusterOptions{Options: opts, Replicas: 3, Dispatch: LeastLoaded})

	if cluster.Merged.DropRate >= single.DropRate {
		t.Fatalf("3 replicas drop rate %v not below single replica %v",
			cluster.Merged.DropRate, single.DropRate)
	}
	if cluster.Merged.DropRate > 0.1 {
		t.Fatalf("cluster still dropping %v at a sustainable aggregate rate", cluster.Merged.DropRate)
	}
}

func TestClusterServesEveryRequestOnce(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(0, 3000, 90, 52)
	for _, p := range []Platform{Clockwork, TFServe} {
		opts := Options{Platform: p, SLOms: m.SLO()}
		for _, d := range []Dispatch{RoundRobin, LeastLoaded, JoinShortestQueue} {
			seen := map[int]bool{}
			dup := -1
			copts := ClusterOptions{Options: opts, Replicas: 4, Dispatch: d}
			copts.Observer = func(r Result) {
				if seen[r.ID] {
					dup = r.ID
				}
				seen[r.ID] = true
			}
			cluster := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, copts)
			if dup >= 0 {
				t.Fatalf("%v/%v: request %d served twice", p, d, dup)
			}
			if len(seen) != 3000 || cluster.Merged.Total != 3000 {
				t.Fatalf("%v/%v: %d distinct results (merged total %d), want 3000", p, d, len(seen), cluster.Merged.Total)
			}
		}
	}
}

// TestClusterSinglePass pins the engine refactor's core acceptance
// criterion: RunCluster makes exactly one pass over the request stream
// regardless of replica count — no per-replica trace replay.
func TestClusterSinglePass(t *testing.T) {
	m := model.ResNet50()
	base := workload.Video(0, 500, 60, 57)
	for _, replicas := range []int{1, 4, 16} {
		passes := 0
		s := workload.NewStream("counted", 0, base.Len(), func() func(i int) workload.Request {
			passes++
			it := base.Iter()
			return func(int) workload.Request {
				r, _ := it.Next()
				return r
			}
		})
		cs := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
			ClusterOptions{Options: Options{Platform: Clockwork, SLOms: m.SLO()},
				Replicas: replicas, Dispatch: LeastLoaded})
		if cs.Merged.Total != base.Len() {
			t.Fatalf("replicas=%d: served %d of %d requests", replicas, cs.Merged.Total, base.Len())
		}
		if passes != 1 {
			t.Fatalf("replicas=%d: RunCluster made %d passes over the stream, want exactly 1", replicas, passes)
		}
	}
}

func TestClusterPerReplicaControllers(t *testing.T) {
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	s := workload.Video(0, 6000, 60, 53)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}
	var handlers []*ApparateHandler
	cluster := RunCluster(s, func(i int) Handler {
		h := NewApparate(model.ResNet50(), prof, 0.02, controller.Config{})
		handlers = append(handlers, h)
		return h
	}, ClusterOptions{Options: opts, Replicas: 2, Dispatch: RoundRobin})

	if cluster.Merged.Accuracy < 0.98 {
		t.Fatalf("cluster accuracy %v below constraint margin", cluster.Merged.Accuracy)
	}
	// Each replica's controller must have adapted independently.
	adapted := 0
	for _, h := range handlers {
		if h.Ctl.TuneRounds+h.Ctl.AdjustRounds > 0 {
			adapted++
		}
	}
	if adapted < 2 {
		t.Fatalf("only %d replica controllers adapted", adapted)
	}
}

// TestLeastLoadedAdaptsToHeterogeneousReplicas is where exact-queue-state
// least-loaded earns its keep: on a heterogeneous cluster (one fast, one
// nominal, one slow replica via the Speeds hook), round-robin keeps
// sending a third of the traffic to the slow replica and drops heavily,
// while least-loaded reads each replica's true outstanding work — which
// reflects its speed — and shifts load to the fast one. Work-awareness
// also beats job counting (JSQ), which can't see that the slow replica's
// short queue still takes longer to drain.
func TestLeastLoadedAdaptsToHeterogeneousReplicas(t *testing.T) {
	m := model.BERTBase()
	qps := trace.TargetQPS(m) * 2
	s := workload.Amazon(6000, qps, 54)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}
	speeds := []float64{1.6, 1, 0.55}
	run := func(d Dispatch) float64 {
		c := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
			ClusterOptions{Options: opts, Replicas: 3, Dispatch: d, Speeds: speeds})
		return c.Merged.DropRate
	}
	rr, ll, jsq := run(RoundRobin), run(LeastLoaded), run(JoinShortestQueue)
	if ll >= rr/2 {
		t.Fatalf("least-loaded drop rate %v not well below round-robin %v on a heterogeneous cluster", ll, rr)
	}
	if ll > jsq {
		t.Fatalf("least-loaded drop rate %v above join-shortest-queue %v; work-awareness should beat job counting", ll, jsq)
	}
}

// TestHeterogeneousSpeedsScaleLatency pins the Speeds hook itself: a
// uniformly 2x-faster cluster must serve every request with strictly
// lower p99 than the nominal one.
func TestHeterogeneousSpeedsScaleLatency(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(0, 2000, 60, 56)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}
	run := func(speeds []float64) *ClusterStats {
		return RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
			ClusterOptions{Options: opts, Replicas: 2, Dispatch: RoundRobin, Speeds: speeds})
	}
	nominal, fast := run(nil), run([]float64{2})
	if fast.Merged.Total != nominal.Merged.Total {
		t.Fatalf("speed scaling changed the request count: %d vs %d", fast.Merged.Total, nominal.Merged.Total)
	}
	if fp, np := fast.Merged.Lat.Percentile(99), nominal.Merged.Lat.Percentile(99); fp >= np {
		t.Fatalf("2x speeds p99 %v not below nominal %v", fp, np)
	}
}

func TestClusterPanicsOnZeroReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunCluster with 0 replicas did not panic")
		}
	}()
	RunCluster(nil, func(int) Handler { return nil }, ClusterOptions{Replicas: 0})
}

func TestDispatchStrings(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" ||
		JoinShortestQueue.String() != "join-shortest-queue" {
		t.Fatal("bad dispatch names")
	}
}

func TestParsePlatformDispatchRoundTrip(t *testing.T) {
	for _, name := range Platforms() {
		p, err := ParsePlatform(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParsePlatform(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range Dispatches() {
		d, err := ParseDispatch(name)
		if err != nil || d.String() != name {
			t.Fatalf("ParseDispatch(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := ParsePlatform("nope"); err == nil {
		t.Fatal("ParsePlatform accepted unknown name")
	}
	if _, err := ParseDispatch("nope"); err == nil {
		t.Fatal("ParseDispatch accepted unknown name")
	}
}

// TestRoundRobinOrdering pins the dispatch contract: request i lands on
// replica i mod R, and each replica sees its slice in arrival order.
func TestRoundRobinOrdering(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(0, 100, 30, 55)
	// A generous SLO so nothing drops and every request is observable.
	opts := Options{Platform: Clockwork, SLOms: 10 * m.SLO()}
	const replicas = 3
	perReplica := make([][]int, replicas)
	cluster := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} },
		ClusterOptions{Options: opts, Replicas: replicas, Dispatch: RoundRobin,
			ReplicaObserver: func(replica int, r Result) {
				perReplica[replica] = append(perReplica[replica], r.ID)
			}})
	for i, ids := range perReplica {
		prev := -1
		for _, id := range ids {
			if id%replicas != i {
				t.Fatalf("replica %d served request %d (want ids ≡ %d mod %d)", i, id, i, replicas)
			}
			if id <= prev {
				t.Fatalf("replica %d results out of arrival order: %d after %d", i, id, prev)
			}
			prev = id
		}
		if len(ids) == 0 || cluster.PerReplica[i].Total == 0 {
			t.Fatalf("replica %d received no requests", i)
		}
	}
}

// TestDispatchTieBreaking pins the tie rule for both exact-queue-state
// policies: when several replicas carry equal load, the lowest-indexed
// one wins, so a burst of simultaneous arrivals spreads
// deterministically as 0,1,2,0,1,2,... (LeastLoaded compares estimated
// outstanding work; JoinShortestQueue compares jobs in system — with
// identical replicas both re-tie after every assignment, and the
// strict-inequality scan must then cycle like round-robin.)
func TestDispatchTieBreaking(t *testing.T) {
	m := model.ResNet50()
	const n, replicas = 12, 3
	reqs := make([]workload.Request, n)
	for i := range reqs {
		// All arrive at t=0: every assignment starts from a tie.
		reqs[i] = workload.Request{ID: i, ArrivalMS: 0}
	}
	opts := Options{Platform: Clockwork, SLOms: 100 * m.SLO()}
	for _, d := range []Dispatch{LeastLoaded, JoinShortestQueue} {
		perReplica := make([][]int, replicas)
		cluster := RunCluster(workload.FromSlice("burst", 0, reqs),
			func(int) Handler { return &VanillaHandler{Model: m} },
			ClusterOptions{Options: opts, Replicas: replicas, Dispatch: d,
				ReplicaObserver: func(replica int, r Result) {
					perReplica[replica] = append(perReplica[replica], r.ID)
				}})
		for i, ids := range perReplica {
			if len(ids) != n/replicas || cluster.PerReplica[i].Total != n/replicas {
				t.Fatalf("%v: replica %d served %d requests, want %d", d, i, len(ids), n/replicas)
			}
			for _, id := range ids {
				if id%replicas != i {
					t.Fatalf("%v: tie-break sent request %d to replica %d (want %d)", d, id, i, id%replicas)
				}
			}
		}
	}
}

// TestVanillaSampleFreePassEquivalence pins the vanilla baseline's
// sample-free pass: vanilla serving never reads a sample, so a run on
// the stream's WithoutSamples pass equals one on the full stream —
// every per-request result, the merged Stats and every replica's —
// on one replica, and on cluster-chaos's 8-replica cluster with its
// faults, retry and hedging, heterogeneous speeds and a square-wave
// rate.
func TestVanillaSampleFreePassEquivalence(t *testing.T) {
	m := model.BERTBase()
	square, err := trace.ParseSchedule("square:30/0.5/2")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		stream *workload.Stream
		opts   ClusterOptions
	}{
		{"one-replica/clockwork", workload.Amazon(3000, 3*trace.TargetQPS(m), 5),
			ClusterOptions{Options: Options{Platform: Clockwork, SLOms: m.SLO()}, Replicas: 1}},
		{"one-replica/tf-serve", workload.Amazon(3000, 3*trace.TargetQPS(m), 5),
			ClusterOptions{Options: Options{Platform: TFServe, SLOms: m.SLO(), MaxBatch: 4, QueueCap: 8}, Replicas: 1}},
		{"chaos", mustStream(t, "amazon", 4000, 8*trace.TargetQPS(m), 5, square),
			ClusterOptions{Options: Options{Platform: Clockwork, SLOms: m.SLO()}, Replicas: 8,
				Dispatch: LeastLoaded, Speeds: []float64{1, 0.5},
				Faults: mustFaults(t, "mtbf:20000/1000;delaydist=exp:1;loss=0.001"),
				Retry:  mustRetry(t, "attempts=3/hedge=95"), FaultSeed: 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(s *workload.Stream) (*ClusterStats, []Result) {
				var rs []Result
				opts := c.opts
				opts.Observer = func(r Result) { rs = append(rs, r) }
				return RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts), rs
			}
			full, fullRes := run(c.stream)
			bare, bareRes := run(c.stream.WithoutSamples())
			sameResults(t, c.name, fullRes, bareRes)
			if got, want := statsFingerprint(bare.Merged), statsFingerprint(full.Merged); got != want {
				t.Fatalf("merged stats differ:\n full: %s\n bare: %s", want, got)
			}
			if len(bare.PerReplica) != len(full.PerReplica) {
				t.Fatalf("%d replicas on the bare pass, %d on the full one", len(bare.PerReplica), len(full.PerReplica))
			}
			for i := range full.PerReplica {
				if got, want := statsFingerprint(bare.PerReplica[i]), statsFingerprint(full.PerReplica[i]); got != want {
					t.Fatalf("replica %d stats differ:\n full: %s\n bare: %s", i, want, got)
				}
			}
			if !reflect.DeepEqual(bare.Faults, full.Faults) {
				t.Fatalf("fault stats differ: full %+v, bare %+v", full.Faults, bare.Faults)
			}
			if c.opts.Faults != nil && (full.Faults == nil || full.Faults.Crashes == 0 || full.Faults.Hedged == 0) {
				t.Fatalf("the chaos case realized no crash or hedge: %+v", full.Faults)
			}
		})
	}
}

func mustStream(t *testing.T, name string, n int, qps float64, seed uint64, sched trace.Schedule) *workload.Stream {
	t.Helper()
	s, err := workload.ByNameSched(name, n, qps, seed, sched)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMergedSharesLoneRecorder pins when a run's merged latencies are
// the replica's own recorder: only when that one recorder saw every
// latency and nothing queried it during the run, that is at width one
// without fault mode. Fault mode records through the dispatcher's
// arbiter, and a wider cluster merges several recorders.
func TestMergedSharesLoneRecorder(t *testing.T) {
	m := model.ResNet50()
	s := workload.Video(0, 600, 30, 3)
	for _, mode := range []metrics.Mode{metrics.ModeExact, metrics.ModeSketch} {
		for _, c := range []struct {
			name     string
			replicas int
			retry    string
			shared   bool
		}{
			{"one", 1, "", true},
			{"one-retry", 1, "attempts=2", false},
			{"two", 2, "", false},
		} {
			opts := ClusterOptions{Options: Options{Platform: Clockwork, SLOms: m.SLO(), Metrics: mode}, Replicas: c.replicas}
			if c.retry != "" {
				opts.Retry = mustRetry(t, c.retry)
			}
			cs := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, opts)
			shared := false
			for _, st := range cs.PerReplica {
				shared = shared || st.Lat == cs.Merged.Lat
			}
			if shared != c.shared {
				t.Fatalf("%v/%s: merged recorder shared %v, want %v", mode, c.name, shared, c.shared)
			}
			if cs.Merged.Lat.Len() != cs.Merged.Delivered || cs.Merged.Delivered == 0 {
				t.Fatalf("%v/%s: merged recorder holds %d latencies for %d delivered", mode, c.name, cs.Merged.Lat.Len(), cs.Merged.Delivered)
			}
		}
	}
}
