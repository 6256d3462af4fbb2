package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// smallGrid is a fast mixed grid: CV + NLP + generative, both
// platforms, two budgets, a cluster axis.
func smallGrid() Grid {
	return Grid{
		Models:    []string{"resnet18", "distilbert-base", "t5-large"},
		Workloads: []string{"video-0", "amazon", "cnn-dailymail"},
		Budgets:   []float64{0.01, 0.02},
		Replicas:  []int{1, 2},
		N:         600,
		GenN:      6,
		Seed:      7,
	}
}

func TestExpandPairsCompatibly(t *testing.T) {
	scs, err := smallGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) == 0 {
		t.Fatal("empty expansion")
	}
	for _, sc := range scs {
		m, err := model.ByName(sc.Model)
		if err != nil {
			t.Fatal(err)
		}
		if workload.IsGenerative(sc.Workload) != m.Generative {
			t.Fatalf("incompatible pairing expanded: %s", sc.Key())
		}
		if workload.IsVideo(sc.Workload) && !m.Family.IsCV() {
			t.Fatalf("non-CV model on video: %s", sc.Key())
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("expanded scenario invalid: %v", err)
		}
	}
	// resnet18×video-0 and distilbert×amazon: 2 platforms × 2 budgets ×
	// 2 replica counts = 8 each. t5-large×cnn-dailymail collapses the
	// platform and replica axes: 2 budgets = 2 scenarios. Total 18.
	if len(scs) != 18 {
		t.Fatalf("expanded %d scenarios, want 18", len(scs))
	}
}

// TestExpandRejectsMisspeltWorkload: a workload name no workload has
// fails the grid for every model class. The pairing rule alone drops
// such a name silently for CV and generative models, which can serve
// neither a "video-03" nor a "sqaud".
func TestExpandRejectsMisspeltWorkload(t *testing.T) {
	for _, g := range []Grid{
		{Models: []string{"resnet18", "resnet50"}, Workloads: []string{"video-0", "video-03"}},
		{Models: []string{"bert-base"}, Workloads: []string{"amazon", "video-03"}},
		{Models: []string{"t5-large"}, Workloads: []string{"squad", "sqaud"}},
		// Filters cannot drop a misspelt name before it is checked.
		{Models: []string{"distilbert-base"}, Workloads: []string{"amazon", "imbd"}, Skip: []string{"workload=imbd"}},
	} {
		scs, err := g.Expand()
		bad := g.Workloads[1]
		if err == nil || !strings.Contains(err.Error(), `unknown workload "`+bad+`"`) {
			t.Errorf("%v × %v: expanded %d scenarios, error %v; want unknown workload %q",
				g.Models, g.Workloads, len(scs), err, bad)
		}
	}
}

// TestExpandRejectsNegativeReplicas: a negative replica count fails the
// grid for every model class, as it fails Validate. Normalize, which
// Expand applies before it validates a scenario, turns it into one
// replica, so without the axis check -replicas -2 ran width-one
// scenarios without a word.
func TestExpandRejectsNegativeReplicas(t *testing.T) {
	for _, g := range []Grid{
		{Models: []string{"resnet18"}, Workloads: []string{"video-0"}, Replicas: []int{-2}},
		{Models: []string{"resnet18"}, Workloads: []string{"video-0"}, Replicas: []int{-2, 1}},
		{Models: []string{"bert-base"}, Workloads: []string{"amazon"}, Replicas: []int{2, -2}},
		{Models: []string{"t5-large"}, Workloads: []string{"squad"}, Replicas: []int{-2}},
		{Models: []string{"resnet50"}, Workloads: []string{"video-1"}, Replicas: []int{-2}, Autoscales: []string{"1..4"}},
	} {
		scs, err := g.Expand()
		if err == nil || err.Error() != "scenario: replica count -2 must be non-negative (0 = one replica)" {
			t.Errorf("%v × %v at replicas %v: expanded %d scenarios, error %v; want the negative-count error",
				g.Models, g.Workloads, g.Replicas, len(scs), err)
		}
	}
	scs, err := Grid{Models: []string{"resnet18"}, Workloads: []string{"video-0"}, Platforms: []string{"clockwork"}, Replicas: []int{0}}.Expand()
	if err != nil || len(scs) != 1 || scs[0].Replicas != 1 {
		t.Fatalf("replicas 0 expanded to %v, error %v; want one width-one scenario", scs, err)
	}
}

func TestExpandGenerativeAxesCollapse(t *testing.T) {
	g := Grid{
		Models:    []string{"t5-large"},
		Workloads: []string{"squad"},
		Platforms: []string{"clockwork", "tf-serve"},
		Replicas:  []int{1, 2, 4},
		GenN:      5,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("generative axes did not collapse: %d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.Platform != "clockwork" || sc.Replicas != 1 || sc.Dispatch != "round-robin" {
		t.Fatalf("generative scenario not canonical: %s", sc.Key())
	}
}

func TestExpandOnlySkipFilters(t *testing.T) {
	g := smallGrid()
	g.Only = []string{"model=resnet*", "platform=clockwork"}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) == 0 {
		t.Fatal("filters removed everything")
	}
	for _, sc := range scs {
		if !strings.HasPrefix(sc.Model, "resnet") || sc.Platform != "clockwork" {
			t.Fatalf("Only filter leaked: %s", sc.Key())
		}
	}

	g = smallGrid()
	g.Skip = []string{"workload=video-*", "replicas=2"}
	scs, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if workload.IsVideo(sc.Workload) || sc.Replicas == 2 {
			t.Fatalf("Skip filter leaked: %s", sc.Key())
		}
	}

	if _, err := (Grid{Only: []string{"model=[bad"}}).Expand(); err == nil {
		t.Fatal("malformed filter pattern accepted")
	}
	for _, g := range []Grid{{Only: []string{"modle=resnet18"}}, {Skip: []string{"modle=resnet18"}}} {
		_, err := g.Expand()
		if err == nil || !strings.Contains(err.Error(), `"modle"`) ||
			!strings.Contains(err.Error(), "known axes: model, workload, platform") {
			t.Fatalf("misspelt filter axis: got error %v, want one naming it and the known axes", err)
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(1, "model=x workload=y")
	if b := DeriveSeed(1, "model=x workload=y"); a != b {
		t.Fatalf("same inputs, different seeds: %d vs %d", a, b)
	}
	if b := DeriveSeed(2, "model=x workload=y"); a == b {
		t.Fatal("base seed ignored")
	}
	if b := DeriveSeed(1, "model=x workload=z"); a == b {
		t.Fatal("identity ignored")
	}
}

// TestDeterministicAcrossWorkers is the sweep's core guarantee: the
// same grid and seed produce byte-identical JSON and CSV no matter how
// many workers run it or in what order scenarios complete.
func TestDeterministicAcrossWorkers(t *testing.T) {
	scs, err := smallGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	emit := func(workers int) (string, string) {
		results := Run(scs, Options{Workers: workers})
		var j, c bytes.Buffer
		if err := WriteJSON(&j, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, results); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := emit(1)
	j8, c8 := emit(8)
	if j1 != j8 {
		t.Fatal("JSON output differs between -workers 1 and -workers 8")
	}
	if c1 != c8 {
		t.Fatal("CSV output differs between -workers 1 and -workers 8")
	}
	if !strings.Contains(c1, "resnet18") || !strings.Contains(j1, "cnn-dailymail") {
		t.Fatal("emitted output missing expected scenarios")
	}
}

// TestExpandIgnoresAxisOrder is a metamorphic pin: reversing every axis
// list of a grid expands to the same scenarios in the same order, and
// the sweep writes byte-identical JSON.
func TestExpandIgnoresAxisOrder(t *testing.T) {
	run := func(g Grid) ([]core.Scenario, []byte) {
		g.N, g.Seed = 400, 7
		scs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, Run(scs, Options{})); err != nil {
			t.Fatal(err)
		}
		return scs, buf.Bytes()
	}
	fwd, fwdJSON := run(Grid{
		Models:    []string{"resnet18", "distilbert-base"},
		Workloads: []string{"video-0", "amazon"},
		Platforms: []string{"clockwork", "tf-serve"},
		Budgets:   []float64{0.01, 0.02},
	})
	rev, revJSON := run(Grid{
		Models:    []string{"distilbert-base", "resnet18"},
		Workloads: []string{"amazon", "video-0"},
		Platforms: []string{"tf-serve", "clockwork"},
		Budgets:   []float64{0.02, 0.01},
	})
	if len(fwd) != 8 {
		t.Fatalf("expanded %d scenarios, want 8", len(fwd))
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatal("reversed axis lists expand to different scenarios")
	}
	if !bytes.Equal(fwdJSON, revJSON) {
		t.Fatal("reversed axis lists write different JSON")
	}
}

// TestDeterministicAcrossWorkersSketch extends the determinism gate to
// sketch-mode metrics: the bounded-memory recorder must not introduce
// any order- or concurrency-dependent state, so workers=1 and workers=8
// emit byte-identical JSON and CSV here too.
func TestDeterministicAcrossWorkersSketch(t *testing.T) {
	g := smallGrid()
	g.Metrics = []string{"sketch"}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Metrics != "sketch" {
			t.Fatalf("metrics axis not plumbed: %s", sc.Key())
		}
	}
	emit := func(workers int) (string, string) {
		results := Run(scs, Options{Workers: workers})
		var j, c bytes.Buffer
		if err := WriteJSON(&j, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, results); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := emit(1)
	j8, c8 := emit(8)
	if j1 != j8 {
		t.Fatal("sketch-mode JSON output differs between -workers 1 and -workers 8")
	}
	if c1 != c8 {
		t.Fatal("sketch-mode CSV output differs between -workers 1 and -workers 8")
	}
	if !strings.Contains(c1, "sketch") {
		t.Fatal("CSV missing metrics column value")
	}
}

// TestMetricsAxisKeepsExactSeeds pins that adding the metrics axis did
// not shift the seed derivation for pre-existing exact scenarios: the
// exact default is omitted from the identity string.
func TestMetricsAxisKeepsExactSeeds(t *testing.T) {
	sc := core.Scenario{Model: "resnet18", Workload: "video-0", N: 100}.Normalize()
	if sc.Metrics != "exact" {
		t.Fatalf("normalized metrics = %q", sc.Metrics)
	}
	if strings.Contains(sc.Identity(), "metrics=") {
		t.Fatalf("exact metrics leaked into identity: %s", sc.Identity())
	}
	sk := sc
	sk.Metrics = "sketch"
	if !strings.Contains(sk.Identity(), "metrics=sketch") {
		t.Fatalf("sketch metrics missing from identity: %s", sk.Identity())
	}
}

func TestRunReportsPerScenarioErrors(t *testing.T) {
	scs := []core.Scenario{
		{Model: "resnet18", Workload: "video-0", N: 200, Seed: 1},
		{Model: "no-such-model", Workload: "video-0", N: 200, Seed: 1},
	}
	results := Run(scs, Options{Workers: 2})
	if results[0].Err != "" {
		t.Fatalf("valid scenario errored: %s", results[0].Err)
	}
	if results[1].Err == "" {
		t.Fatal("invalid scenario did not report an error")
	}
	if results[1].Scenario.Model != "no-such-model" {
		t.Fatal("failed scenario lost its slot")
	}
}

func TestRankAndTable(t *testing.T) {
	scs, err := (Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0", "video-1"},
		Platforms: []string{"clockwork"},
		N:         400,
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := Run(scs, Options{})
	ranked, err := Rank(results, "p99")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Apparate.P99ms > ranked[i].Apparate.P99ms {
			t.Fatal("p99 ranking not ascending")
		}
	}
	if _, err := Rank(results, "bogus"); err == nil {
		t.Fatal("unknown rank metric accepted")
	}
	tab, err := Table(results, "throughput", 1)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(tab, "\n"); lines != 2 { // header + 1 row
		t.Fatalf("table with top=1 has %d lines, want 2", lines)
	}
}

// TestRankPutsUndeliveredLast sweeps a cluster so slow that Clockwork's
// Apparate run delivers nothing. Its zero percentiles, win and accuracy
// loss must not rank it above the TF-Serve scenario, which delivered,
// under any metric; only a failed scenario ranks below it.
func TestRankPutsUndeliveredLast(t *testing.T) {
	scs, err := (Grid{
		Models:    []string{"resnet50"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork", "tf-serve"},
		Replicas:  []int{2},
		Heteros:   []string{"0.5"},
		N:         300,
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := Run(scs, Options{})
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Scenario.Platform, r.Err)
		}
	}
	failed := Result{Result: core.Result{Scenario: core.Scenario{Model: "resnet18", Workload: "video-1"}}, Err: "failed"}
	results = append(results, failed)
	for _, metric := range RankMetrics() {
		ranked, err := Rank(results, metric)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, r := range ranked {
			order = append(order, r.Scenario.Platform)
		}
		if want := []string{"tf-serve", "clockwork", ""}; !reflect.DeepEqual(order, want) {
			t.Errorf("rank %s: platforms %q, want %q", metric, order, want)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	scs, err := (Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork", "tf-serve"},
		N:         200,
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var last int
	Run(scs, Options{Workers: 2, Progress: func(done, total int) {
		calls++
		last = done
		if total != len(scs) {
			t.Fatalf("progress total %d, want %d", total, len(scs))
		}
	}})
	if calls != len(scs) || last != len(scs) {
		t.Fatalf("progress called %d times (last done=%d), want %d", calls, last, len(scs))
	}
}
