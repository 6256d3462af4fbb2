package perf

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exitsim"
	"repro/internal/genserve"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func TestWorkloadsExpandToPinnedCounts(t *testing.T) {
	want := map[string]int{"sweep-class": 104, "cluster-chaos": 128, "cluster-chaos-traced": 128, "gen": 102, "static-ee": 8}
	ws := Workloads()
	if len(ws) != len(want) {
		t.Fatalf("%d workloads, want %d", len(ws), len(want))
	}
	for _, w := range ws {
		if w.Count != want[w.Name] {
			t.Errorf("%s: pinned count %d, want %d", w.Name, w.Count, want[w.Name])
		}
		for _, seed := range []uint64{1, 2} {
			p, err := Prepare(w, seed, SmokeScale, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if p.Units() != w.Count {
				t.Errorf("%s seed %d: expands to %d, want %d", w.Name, seed, p.Units(), w.Count)
			}
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range Metrics() {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 || (m.Layer && (m.Bound != 0 || m.Floor != 0)) {
			t.Errorf("%s: bound %g floor %g", m.Name, m.Bound, m.Floor)
		}
		if m.Listed && !m.Layer && m.Bound == 0 {
			t.Errorf("%s: a listed end-to-end metric needs a bound", m.Name)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and the listed metrics
// of the tables here, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var ws []struct{ Name, Why string }
	for _, w := range Workloads() {
		ws = append(ws, struct{ Name, Why string }{w.Name, w.Why})
	}
	if !reflect.DeepEqual(bench.Workloads, ws) {
		t.Errorf("workloads\n got %v\nwant %v", bench.Workloads, ws)
	}
	var e2e, layers []string
	for _, m := range Metrics() {
		if m.Listed && m.Layer {
			layers = append(layers, m.Name+" "+m.Unit+" "+m.Better)
		} else if m.Listed {
			e2e = append(e2e, m.Name+" "+m.Unit+" "+m.Better)
			for _, x := range bench.EndToEnd {
				if x.Name == m.Name && x.Bound != m.Bound {
					t.Errorf("%s: bound %g in BENCHMARK.json, %g here", m.Name, x.Bound, m.Bound)
				}
			}
		}
	}
	var gotE2E, gotLayers []string
	for _, x := range bench.EndToEnd {
		gotE2E = append(gotE2E, x.Name+" "+x.Unit+" "+x.Better)
	}
	for _, x := range bench.PerLayer {
		gotLayers = append(gotLayers, x.Name+" "+x.Unit+" "+x.Better)
	}
	if !reflect.DeepEqual(gotE2E, e2e) {
		t.Errorf("end_to_end\n got %v\nwant %v", gotE2E, e2e)
	}
	if !reflect.DeepEqual(gotLayers, layers) {
		t.Errorf("per_layer\n got %v\nwant %v", gotLayers, layers)
	}
}

func TestPercentileDropsThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, ok := Percentile(xs(99), 90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be dropped")
	}
	if v, ok := Percentile(xs(100), 90); !ok || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90.1, true", v, ok)
	}
	if v, ok := Percentile(xs(8), 50); !ok || v != 4.5 {
		t.Errorf("median of 1..8 = %g, %v; want 4.5, true", v, ok)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9, 2, 7}, [3]float64{1.5, 5, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 0.125, 4, 8, 16, 32, 1}, [3]float64{0.3125, 2.5, 14}},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall, _ := MetricByName("wall_s")        // lower is better, bound 25%
	rate, _ := MetricByName("sim_req_per_s") // higher is better
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		m        Metric
		old, new []float64
		want     string
	}{
		{"30% slower", wall, steady, scale(steady, 1.3), Regressed},
		{"5% slower, within bound", wall, steady, scale(steady, 1.05), Unchanged},
		{"5% faster in every pair", wall, steady, scale(steady, 0.95), Improved},
		{"higher rate in every pair", rate, steady, scale(steady, 1.05), Improved},
		{"lower rate beyond bound", rate, steady, scale(steady, 0.7), Regressed},
		{"noisier than the bound", wall, []float64{8, 12, 9, 11, 10}, []float64{12, 8, 11, 9, 10}, Unresolved},
		{"wins 8 of 10 pairs", wall, steady, append(scale(steady[:8], 0.95), 10.5, 10.5), Unchanged},
	} {
		if got := Verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// The probes must serve exactly as the handlers and policies they wrap:
// an unwrapped run's Stats are reproduced bit for bit.
func TestProbesReproduceUnwrappedStats(t *testing.T) {
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	stream := workload.Video(1, 2000, 30, 7)
	opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
	plain := serving.Run(stream.Iter(), serving.NewApparate(m, prof, 0.02, controller.Config{}), opts)
	var p probes
	probed := serving.Run(stream.Iter(), apparateProbe{serving.NewApparate(m, prof, 0.02, controller.Config{}), &p}, opts)
	if !sameStats(plain, probed) {
		t.Errorf("probed Apparate run differs: %+v vs %+v", *plain, *probed)
	}
	if p.serve.calls != plain.Delivered || p.evaluate.calls != p.serve.calls || p.observe.calls != p.serve.calls {
		t.Errorf("probe calls serve %d evaluate %d observe %d, want %d each", p.serve.calls, p.evaluate.calls, p.observe.calls, plain.Delivered)
	}

	g := model.T5Large()
	gprof := exitsim.ProfileFor(g, exitsim.KindCNNDailyMail)
	gs := workload.CNNDailyMail(40, 2, 7)
	eng := genserve.NewEngine(g, gprof)
	a := eng.Run(gs, genserve.NewApparateGen(g, gprof, 0.01))
	var gp probes
	b := eng.Run(gs, policyProbe{genserve.NewApparateGen(g, gprof, 0.01), &gp})
	if a.TPT().Percentile(50) != b.TPT().Percentile(50) || a.TotalTokens != b.TotalTokens || a.MeanScore != b.MeanScore {
		t.Errorf("probed generative run differs")
	}
	if gp.decide.calls == 0 {
		t.Error("policy probe saw no Decide calls")
	}
}

func sameStats(a, b *serving.Stats) bool {
	return a.Total == b.Total && a.Delivered == b.Delivered && a.Drops == b.Drops &&
		a.SLOMisses == b.SLOMisses && a.Correct == b.Correct && a.Exits == b.Exits &&
		a.AvgBatch == b.AvgBatch && a.ThroughputQPS == b.ThroughputQPS &&
		a.Lat.Percentile(50) == b.Lat.Percentile(50) && a.Lat.Percentile(99) == b.Lat.Percentile(99) &&
		a.Lat.Mean() == b.Lat.Mean()
}

// Every workload's layers pass composes results equal to the end-to-end
// pass's, and reports every listed per-layer metric the child measures.
func TestLayersPassMatchesEndToEnd(t *testing.T) {
	fromE2E := map[string]bool{"sweep.busy_frac": true, "go.alloc_mib": true, "go.gc_cycles": true, "bench.layers_overhead_frac": true}
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := Prepare(w, 1, SmokeScale, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			e, l := p.RunEndToEnd(), p.RunLayers()
			if e.Failed+l.Failed > 0 {
				t.Errorf("failures %v %v", e.Failures, l.Failures)
			}
			if !reflect.DeepEqual(e.Hashes, l.Hashes) || e.Digest != l.Digest {
				t.Errorf("composed results differ from the end-to-end pass's")
			}
			for _, m := range Metrics() {
				_, inE2E := e.Metrics[m.Name]
				_, inLayers := l.Metrics[m.Name]
				switch {
				case m.Listed && m.Layer && !fromE2E[m.Name] && !inLayers:
					t.Errorf("layers pass did not report %s", m.Name)
				case m.Listed && fromE2E[m.Name] && m.Name != "bench.layers_overhead_frac" && !inE2E:
					t.Errorf("end-to-end pass did not report %s", m.Name)
				}
			}
			checkSpans(t, l.Spans)
		})
	}
}

// checkSpans checks the span tree: every scenario has one root span,
// parents enclose their children's time, and the scenario's children
// are the layer boundaries the benchmark documents.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	roots := map[int]int{}
	children := map[string]bool{}
	allowed := map[string]bool{
		"model.by_name": true, "core.setup": true, "vanilla_run": true, "apparate_run": true, "static_run": true,
		"metrics.summary": true, "obs.write": true, "workload.next": true, "workload.token_sample": true,
		"baselines.tune_shared": true, "baselines.tune_per_ramp": true, "baselines.tune_oracle": true,
	}
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Scenario]++
			if s.Name != "scenario" {
				t.Errorf("root span %q", s.Name)
			}
			continue
		}
		parent := spans[s.Parent]
		if parent.Scenario != s.Scenario || s.StartNS < parent.StartNS || s.EndNS > parent.EndNS || s.TotalNS > parent.TotalNS {
			t.Errorf("span %s escapes its parent %s", s.Name, parent.Name)
		}
		if parent.Name == "scenario" {
			children[s.Name] = true
			if !allowed[s.Name] {
				t.Errorf("unexpected scenario child %s", s.Name)
			}
		}
	}
	for id, n := range roots {
		if n != 1 {
			t.Errorf("scenario %d has %d root spans", id, n)
		}
	}
	for _, need := range []string{"model.by_name", "core.setup", "vanilla_run", "metrics.summary"} {
		if !children[need] {
			t.Errorf("no scenario has a %s span", need)
		}
	}
}

func TestCheckResultRejectsBadOutputs(t *testing.T) {
	good := sweep.Result{Result: core.Result{
		Scenario: core.Scenario{N: 10}, Requests: 10,
		Apparate: core.RunSummary{P25ms: 1, P50ms: 2, P95ms: 3, P99ms: 4, Accuracy: 0.99},
		Vanilla:  core.RunSummary{P25ms: 1, P50ms: 2, P95ms: 3, P99ms: 4, Accuracy: 1},
	}}
	if msg := CheckResult(good); msg != "" {
		t.Fatalf("good result rejected: %s", msg)
	}
	for name, mutate := range map[string]func(*sweep.Result){
		"error":          func(r *sweep.Result) { r.Err = "boom" },
		"short":          func(r *sweep.Result) { r.Requests = 9 },
		"drop rate":      func(r *sweep.Result) { r.Apparate.DropRate = 1.5 },
		"accuracy":       func(r *sweep.Result) { r.Vanilla.Accuracy = -0.1 },
		"order":          func(r *sweep.Result) { r.Apparate.P95ms = 5 },
		"kv utilization": func(r *sweep.Result) { r.KVUtil = 2 },
	} {
		r := good
		mutate(&r)
		if CheckResult(r) == "" {
			t.Errorf("%s: bad result accepted", name)
		}
	}
}
