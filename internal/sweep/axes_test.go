package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestExpandLoadDynamicsAxes(t *testing.T) {
	g := Grid{
		Models:        []string{"resnet18"},
		Workloads:     []string{"video-0"},
		Platforms:     []string{"clockwork"},
		RateSchedules: []string{"", "phases:10x1/10x4"},
		Autoscales:    []string{"", "1..4"},
		N:             100,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d scenarios, want 4 (2 schedules x 2 autoscales)", len(scs))
	}
	// The empty-axis scenario must have the identity (and so the seed)
	// it had before the axes existed.
	plain := core.Scenario{Model: "resnet18", Workload: "video-0",
		Platform: "clockwork", N: 100}.Normalize()
	found := false
	for _, sc := range scs {
		if sc.Identity() == plain.Identity() {
			found = true
			if sc.Seed != DeriveSeed(g.Seed, plain.Identity()) {
				t.Fatal("plain scenario's derived seed changed")
			}
		}
	}
	if !found {
		t.Fatal("plain scenario missing from load-dynamics grid")
	}
}

func TestLoadDynamicsAxisFilters(t *testing.T) {
	g := Grid{
		Models:        []string{"resnet18"},
		Workloads:     []string{"video-0"},
		Platforms:     []string{"clockwork"},
		RateSchedules: []string{"", "phases:10x1/10x4", "sine:60/0.5/2"},
		Autoscales:    []string{"", "1..4"},
		N:             100,
		// Glob patterns are path.Match globs: '*' stops at '/', so a
		// two-phase spec needs a two-segment pattern.
		Only: []string{"schedule=phases:*/*"},
		Skip: []string{"autoscale=*"},
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("filters kept %d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.RateSchedule != "phases:10x1/10x4" || sc.Autoscale != "" {
		t.Fatalf("filters kept the wrong scenario: %+v", sc)
	}
}

func TestExpandFaultAxes(t *testing.T) {
	g := Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork"},
		Replicas:  []int{2},
		Faults:    []string{"", "crash:r1@2000+500"},
		Retries:   []string{"", "attempts=3"},
		N:         100,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d scenarios, want 4 (2 faults x 2 retries)", len(scs))
	}
	// The fault-free scenario must keep the identity (and so the seed)
	// it had before the fault axes existed.
	plain := core.Scenario{Model: "resnet18", Workload: "video-0",
		Platform: "clockwork", Replicas: 2, N: 100}.Normalize()
	found := false
	for _, sc := range scs {
		if sc.Identity() == plain.Identity() {
			found = true
			if sc.Seed != DeriveSeed(g.Seed, plain.Identity()) {
				t.Fatal("fault-free scenario's derived seed changed")
			}
		}
	}
	if !found {
		t.Fatal("fault-free scenario missing from faulty grid")
	}
}

func TestFaultAxisFilters(t *testing.T) {
	g := Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork"},
		Replicas:  []int{2},
		Faults:    []string{"", "crash:r1@2000+500", "loss=0.01"},
		Retries:   []string{"", "attempts=3"},
		N:         100,
		Only:      []string{"faults=crash:*"},
		Skip:      []string{"retry=*"},
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("filters kept %d scenarios, want 1", len(scs))
	}
	if sc := scs[0]; sc.Faults != "crash:r1@2000+500" || sc.Retry != "" {
		t.Fatalf("filters kept the wrong scenario: %+v", sc)
	}
}

// TestDeterministicAcrossWorkersFaulty extends the workers-1-vs-8
// byte-identity gate over a faulty grid: crash schedules, churn, lossy
// transit, and retry/hedging all ride the deterministic engine clock
// and labeled rng streams, so concurrency must not be observable.
func TestDeterministicAcrossWorkersFaulty(t *testing.T) {
	g := Grid{
		Models:    []string{"resnet18", "distilbert-base"},
		Workloads: []string{"video-0", "amazon"},
		Platforms: []string{"clockwork", "tf-serve"},
		Replicas:  []int{2},
		Faults:    []string{"crash:r1@2000+500", "mtbf:6000/800;delaydist=exp:2;loss=0.005"},
		Retries:   []string{"", "attempts=3/hedge=95"},
		N:         800,
		Seed:      5,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 8 {
		t.Fatalf("faulty grid expanded to only %d scenarios", len(scs))
	}
	emit := func(workers int) string {
		results := Run(scs, Options{Workers: workers})
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("faulty scenario %s failed: %s", r.Scenario.Key(), r.Err)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if emit(1) != emit(8) {
		t.Fatal("faulty sweep output differs between -workers 1 and -workers 8")
	}
}

func TestCSVCarriesFaultColumns(t *testing.T) {
	res := Result{Result: core.Result{
		Scenario: core.Scenario{
			Model: "resnet18", Workload: "video-0", N: 10, Replicas: 2,
			Faults: "crash:r1@2000+500;loss=0.001", Retry: "attempts=3",
		}.Normalize(),
		Crashes: 1, Lost: 2, Retries: 7, Hedges: 3,
		DowntimeMS: 500, UnavailMS: 0,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(buf.String()))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("CSV has %d rows, want header + 1", len(rows))
	}
	col := func(name string) string {
		for i, h := range rows[0] {
			if h == name {
				return rows[1][i]
			}
		}
		t.Fatalf("CSV header missing column %q", name)
		return ""
	}
	if col("faults") != "crash:r1@2000+500;loss=0.001" || col("retry") != "attempts=3" {
		t.Fatalf("fault axis columns wrong: faults=%q retry=%q", col("faults"), col("retry"))
	}
	if col("crashes") != "1" || col("lost") != "2" || col("retries") != "7" ||
		col("hedges") != "3" || col("downtime_ms") != "500" {
		t.Fatalf("availability columns wrong: %q/%q/%q/%q/%q",
			col("crashes"), col("lost"), col("retries"), col("hedges"), col("downtime_ms"))
	}
}

func TestCSVCarriesLoadDynamicsColumns(t *testing.T) {
	res := Result{Result: core.Result{
		Scenario: core.Scenario{
			Model: "resnet18", Workload: "video-0", N: 10,
			RateSchedule: "phases:10x1/10x4", Autoscale: "1..4",
		}.Normalize(),
		ScaleUps: 3, ScaleDowns: 2, PeakReplicas: 4,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(header), len(row))
	}
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("CSV header missing column %q", name)
		return ""
	}
	if col("rate_schedule") != "phases:10x1/10x4" || col("autoscale") != "1..4" {
		t.Fatalf("scenario axis columns wrong: schedule=%q autoscale=%q",
			col("rate_schedule"), col("autoscale"))
	}
	if col("scale_ups") != "3" || col("scale_downs") != "2" || col("peak_replicas") != "4" {
		t.Fatalf("autoscale activity columns wrong: %q/%q/%q",
			col("scale_ups"), col("scale_downs"), col("peak_replicas"))
	}
}

func TestExpandKVAxes(t *testing.T) {
	g := Grid{
		Models:        []string{"t5-large"},
		Workloads:     []string{"cnn-dailymail"},
		Platforms:     []string{"clockwork"},
		KVBlocks:      []int{0, 64},
		PrefixHits:    []float64{0, 0.5},
		PrefillChunks: []int{0, 128},
		GenN:          10,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 8 {
		t.Fatalf("expanded %d scenarios, want 8 (2 kv x 2 prefix x 2 chunk)", len(scs))
	}
	// The empty-axis scenario must have the identity (and so the seed)
	// it had before the KV axes existed.
	plain := core.Scenario{Model: "t5-large", Workload: "cnn-dailymail",
		Platform: "clockwork", N: 10}.Normalize()
	found := false
	for _, sc := range scs {
		if sc.Identity() == plain.Identity() {
			found = true
			if sc.Seed != DeriveSeed(g.Seed, plain.Identity()) {
				t.Fatal("plain generative scenario's derived seed changed")
			}
		}
	}
	if !found {
		t.Fatal("plain scenario missing from KV grid")
	}
}

func TestKVAxesCollapseOnClassification(t *testing.T) {
	// Classification scenarios normalize the KV knobs away, so a KV
	// grid over a classification workload dedups to one scenario.
	g := Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork"},
		KVBlocks:  []int{0, 64},
		N:         100,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("expanded %d scenarios, want 1 (KV axes collapse on classification)", len(scs))
	}
}

func TestKVAxisFilters(t *testing.T) {
	g := Grid{
		Models:     []string{"t5-large"},
		Workloads:  []string{"cnn-dailymail"},
		Platforms:  []string{"clockwork"},
		KVBlocks:   []int{0, 64, 128},
		PrefixHits: []float64{0, 0.5},
		GenN:       10,
		Only:       []string{"kv=64"},
		Skip:       []string{"prefixhit=*"},
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("filtered grid expanded %d scenarios, want 1 (kv=64, no prefix)", len(scs))
	}
	if scs[0].KVBlocks != 64 || scs[0].PrefixHit != 0 {
		t.Fatalf("filters kept wrong scenario: kv=%d prefixhit=%g", scs[0].KVBlocks, scs[0].PrefixHit)
	}
}

func TestCSVCarriesKVColumns(t *testing.T) {
	res := Result{Result: core.Result{
		Scenario: core.Scenario{
			Model: "t5-large", Workload: "cnn-dailymail", N: 10,
			KVBlocks: 96, BlockTokens: 8, PrefixHit: 0.5, PrefillChunk: 128,
		}.Normalize(),
		Generative: true,
		KVUtil:     0.75, PrefixHits: 4, Preemptions: 2, QueueMS: 120.5,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(buf.String()))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("CSV has %d rows, want header + 1", len(rows))
	}
	col := func(name string) string {
		for i, h := range rows[0] {
			if h == name {
				return rows[1][i]
			}
		}
		t.Fatalf("CSV header missing column %q", name)
		return ""
	}
	if col("kv_blocks") != "96" || col("block_tokens") != "8" ||
		col("prefix_hit") != "0.5" || col("prefill_chunk") != "128" {
		t.Fatalf("KV scenario columns wrong: %q/%q/%q/%q",
			col("kv_blocks"), col("block_tokens"), col("prefix_hit"), col("prefill_chunk"))
	}
	if col("kv_util") != "0.75" || col("prefix_hits") != "4" ||
		col("preemptions") != "2" || col("queue_ms") != "120.5" {
		t.Fatalf("KV result columns wrong: %q/%q/%q/%q",
			col("kv_util"), col("prefix_hits"), col("preemptions"), col("queue_ms"))
	}
}

// pickSome draws 0, 1 or 2 values, repeats allowed: mostly from good,
// one in ten from bad. Most draws are empty, so a random grid stays
// small.
func pickSome[T any](r *rng.Rand, good []T, bad ...T) []T {
	var out []T
	if r.Bool(0.35) {
		for range 1 + r.Intn(2) {
			if len(bad) > 0 && r.Bool(0.1) {
				out = append(out, bad[r.Intn(len(bad))])
			} else {
				out = append(out, good[r.Intn(len(good))])
			}
		}
	}
	return out
}

// randomGrid draws a grid over valid, unknown and malformed values on
// every axis, with Only and Skip patterns on every axis, on none, and
// on an unknown one.
func randomGrid(r *rng.Rand) Grid {
	g := Grid{
		Models:        pickSome(r, []string{"resnet18", "vgg11", "distilbert-base", "bert-base", "t5-large"}, "bogus"),
		Workloads:     pickSome(r, []string{"video-0", "video-3", "amazon", "imdb", "cnn-dailymail", "squad"}, "video-03", ""),
		Platforms:     pickSome(r, []string{"clockwork", "tf-serve", ""}, "bogus"),
		Dispatches:    pickSome(r, []string{"round-robin", "least-loaded", "join-shortest-queue", ""}, "nope"),
		Replicas:      pickSome(r, []int{0, 1, 2, 3}, -1),
		RateMults:     pickSome(r, []float64{0, 0.5, 1, 2}, -1, math.NaN(), 1e9),
		Budgets:       pickSome(r, []float64{0, 0.01, 0.02, 0.05}, 0.001, 2),
		AccLosses:     pickSome(r, []float64{0, 0.01, 0.05}, -0.1, 1.5),
		ExitRules:     pickSome(r, []string{"", "entropy", "windowed-3", "patience-2"}, "windowed-3x"),
		Metrics:       pickSome(r, []string{"", "exact", "sketch"}, "bogus"),
		RateSchedules: pickSome(r, []string{"", "phases:10x1/10x4", "square:30/0.5/3"}, "bogus:1"),
		Autoscales:    pickSome(r, []string{"", "1..4", "2..3/window=2000"}, "4..1"),
		Heteros:       pickSome(r, []string{"", "1,0.5", "1.0, 0.50"}, "x"),
		Faults:        pickSome(r, []string{"", "crash:r1@2000+500", "loss=0.001", "mtbf:8000/1000;delaydist=exp:2"}, "crash:r7@100+10", "bogus"),
		Retries:       pickSome(r, []string{"", "attempts=3", "attempts=2/hedge=95"}, "attempts=x"),
		KVBlocks:      pickSome(r, []int{0, 64}, -1),
		BlockTokens:   pickSome(r, []int{0, 8, 16}, -2),
		PrefixHits:    pickSome(r, []float64{0, 0.4}, 1.5),
		PrefillChunks: pickSome(r, []int{0, 128}, -5),
		Trace:         r.Bool(0.3),
		Timeline:      r.Bool(0.3),
		ObsTickMS:     []float64{0, 50, 0, 50, 0, 50, -1}[r.Intn(7)],
		N:             []int{0, 100, 2000, 100, 0, 100, 2000, 100, -1}[r.Intn(9)],
		GenN:          []int{0, 5}[r.Intn(2)],
		Seed:          r.Uint64(),
	}
	if len(g.Models) == 0 && r.Bool(0.7) {
		g.Models = []string{"resnet50"} // the whole zoo only now and then
	}
	// "axis=*" keeps exactly the scenarios that carry the axis.
	patterns := []string{
		"model=resnet*", "workload=video-*", "workload=", "platform=tf-serve", "dispatch=least-loaded",
		"replicas=2", "rate=0.5", "budget=0.01", "accloss=0.05", "metrics=exact",
		"schedule=phases:*/*", "hetero=1,0.5", "retry=attempts=3",
		"kv=64", "blocktok=16", "prefixhit=0.4", "prefillchunk=128", "resnet18", "sketch", "0", "*",
	}
	for _, a := range refFilterAxes {
		patterns = append(patterns, a.name+"=*")
	}
	if r.Bool(0.5) {
		g.Only = pickSome(r, patterns, "bogusaxis=x", "model=[bad")
	}
	g.Skip = pickSome(r, patterns, "bogusaxis=x", "model=[bad")
	return g
}

// TestExpandMatchesReference holds Expand's walk of the axes table to
// the loop nest it replaced: on random grids both return the same
// scenarios in the same order, or the same error.
func TestExpandMatchesReference(t *testing.T) {
	// Grids random draws seldom produce: the whole default grid, and an
	// empty workload name, which no filter on its workload token can
	// drop before the grid fails on it.
	grids := []Grid{
		{N: 100, GenN: 5},
		{Models: []string{"bert-base"}, Workloads: []string{"", "amazon"}, Only: []string{"workload=*"}},
		{Models: []string{"bert-base"}, Workloads: []string{"", "amazon"}, Skip: []string{"workload="}},
	}
	for _, g := range grids[1:] {
		if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), `unknown workload ""`) {
			t.Fatalf("grid %+v: Expand error %v, want unknown workload \"\"", g, err)
		}
	}
	r := rng.New(25)
	for range 400 {
		grids = append(grids, randomGrid(r))
	}
	var expanded, failed int
	for i, g := range grids {
		got, gotErr := g.Expand()
		want, wantErr := refExpand(g)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("grid %d %+v: Expand error %v, reference error %v", i, g, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grid %d %+v: Expand gives %d scenarios, the reference %d", i, g, len(got), len(want))
		}
		if gotErr != nil {
			failed++
		} else if len(got) > 0 {
			expanded++
		}
	}
	// Both outcomes must be common, or the comparison proves little.
	t.Logf("%d grids expanded to scenarios, %d failed", expanded, failed)
	if expanded < 80 || failed < 80 {
		t.Fatalf("%d grids expanded to scenarios and %d failed; want at least 80 of each", expanded, failed)
	}
}

// TestAxesCoverGrid: every Grid list but Only and Skip feeds exactly
// one entry of the axes table, and every entry reads one of them.
func TestAxesCoverGrid(t *testing.T) {
	base := make([]int, len(axes))
	longest := 0
	for k, a := range axes {
		base[k], _ = a.bind(&Grid{})
		longest = max(longest, base[k])
	}
	readBy := make([]string, len(axes))
	gt := reflect.TypeFor[Grid]()
	for i := range gt.NumField() {
		f := gt.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Name == "Only" || f.Name == "Skip" {
			continue
		}
		// A list longer than any default changes the count of exactly
		// the axes that read it.
		var g Grid
		reflect.ValueOf(&g).Elem().Field(i).Set(reflect.MakeSlice(f.Type, longest+1, longest+1))
		var readers []string
		for k, a := range axes {
			if n, _ := a.bind(&g); n != base[k] {
				readers = append(readers, a.name)
				readBy[k] = f.Name
			}
		}
		if len(readers) != 1 {
			t.Errorf("Grid.%s feeds axes %v, want exactly one", f.Name, readers)
		}
	}
	for k, a := range axes {
		if readBy[k] == "" {
			t.Errorf("axis %q reads no Grid list", a.name)
		}
	}
}
