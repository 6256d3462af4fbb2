package repro

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/ instead of comparing")

// goldenGrid is the pinned regression grid: a small fixed-seed sweep
// spanning both scenario classes (CV video, NLP trace), both metrics
// modes, and the load-dynamics axes (scheduled rates, autoscaling).
// Every quantity in the pipeline is deterministic, so its CSV output is
// byte-stable across runs and worker counts on a given architecture —
// any diff there is a behavior change, intended or not. Across
// architectures the Go spec permits different floating-point fusion
// (e.g. FMA on arm64), which can flip last-ulp bits in the
// full-precision CSV floats; the committed pin is generated on the CI
// architecture (linux/amd64), so refresh it there, not on a laptop of
// a different architecture.
func goldenGrid() sweep.Grid {
	return sweep.Grid{
		Models:    []string{"resnet18", "distilbert-base"},
		Workloads: []string{"video-0", "amazon"},
		Platforms: []string{"clockwork"},
		Metrics:   []string{"exact", "sketch"},
		// The exact-queue-state dispatch policies are pinned through the
		// autoscaled rows (dispatch collapses to round-robin at one fixed
		// replica, so the non-autoscaled half of the grid dedups).
		Dispatches:    []string{"round-robin", "least-loaded", "join-shortest-queue"},
		Heteros:       []string{"", "1,0.5"},
		RateSchedules: []string{"", "phases:20x1/20x3"},
		Autoscales:    []string{"", "1..4"},
		N:             800,
		Seed:          7,
	}
}

// goldenFaultGrid extends the pin to the fault/retry axes: one-shot
// crash and churn+delay+loss fault models, with and without
// retry/hedging, under both exact-queue-state dispatch policies. It is
// a separate grid (appended after the base rows) so the fault axes do
// not multiply the whole base product.
func goldenFaultGrid() sweep.Grid {
	return sweep.Grid{
		Models:     []string{"resnet18"},
		Workloads:  []string{"video-0"},
		Platforms:  []string{"clockwork"},
		Dispatches: []string{"round-robin", "least-loaded"},
		Replicas:   []int{2},
		Faults:     []string{"crash:r1@3000+2000", "mtbf:8000/1000;delaydist=exp:2;loss=0.002"},
		Retries:    []string{"", "attempts=3/hedge=95"},
		N:          800,
		Seed:       7,
	}
}

// goldenKVGrid extends the pin to the generative KV-block memory
// runtime: exit-rate (acc-loss) × KV-pressure (pool size) ×
// prefix-cache × chunked-prefill rows over the summarization workload.
// The interaction it quantifies is the paper's second dividend of early
// exits under memory-bounded admission — exit-heavy configurations
// finish sequences sooner, freeing KV blocks and shrinking queue_ms /
// preemptions at the same pool size — with tokens/sec, kv_util, and the
// preemption counters as the pinned observables.
func goldenKVGrid() sweep.Grid {
	return sweep.Grid{
		Models:        []string{"t5-large"},
		Workloads:     []string{"cnn-dailymail"},
		Platforms:     []string{"clockwork"},
		AccLosses:     []float64{0.01, 0.05},
		KVBlocks:      []int{0, 96},
		PrefixHits:    []float64{0, 0.5},
		PrefillChunks: []int{0, 128},
		GenN:          12,
		Seed:          7,
	}
}

// TestGoldenSweep is the regression gate the sweep substrate was built
// for: it runs the pinned grid (base rows plus the fault/retry and
// generative-KV rows) and byte-compares the CSV against
// testdata/golden_sweep.csv. When a change intentionally shifts
// results, refresh the pin with `make golden` and review the diff like
// any other code change.
func TestGoldenSweep(t *testing.T) {
	scenarios, err := goldenGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := goldenFaultGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	scenarios = append(scenarios, faulty...)
	kv, err := goldenKVGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	scenarios = append(scenarios, kv...)
	if len(scenarios) == 0 {
		t.Fatal("golden grid expanded to zero scenarios")
	}
	results := sweep.Run(scenarios, sweep.Options{Workers: 4})
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("golden scenario %s failed: %s", r.Scenario.Key(), r.Err)
		}
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_sweep.csv", buf.Bytes())
}

// goldenChaosGrid is a width-8 fault-mode grid shaped like the
// benchmark's cluster-chaos workload: both platforms, hetero speeds,
// autoscaling over 2..8 replicas, a square-wave rate, churn with
// transit delay and loss, and retries with hedging. Its traces pin the
// order of same-instant events across many replicas, which results
// alone do not: two replicas' completions at one instant can swap
// places in a trace while every count and percentile stays the same.
func goldenChaosGrid() sweep.Grid {
	return sweep.Grid{
		Models:        []string{"resnet18", "bert-base"},
		Workloads:     []string{"video-1", "amazon"},
		Platforms:     []string{"clockwork", "tf-serve"},
		Replicas:      []int{8},
		Dispatches:    []string{"least-loaded", "join-shortest-queue"},
		Heteros:       []string{"", "1,0.5"},
		Autoscales:    []string{"2..8"},
		RateSchedules: []string{"square:30/0.5/2"},
		Faults:        []string{"mtbf:20000/1000;delaydist=exp:1;loss=0.001"},
		Retries:       []string{"attempts=3/hedge=95"},
		N:             1500,
		Seed:          7,
	}
}

// TestGoldenTraces pins the bytes of every trace and timeline file, as
// TestGoldenSweep pins results: it runs the three golden grids and
// goldenChaosGrid with Trace and Timeline on through sweep.Run into a
// temporary ObsDir, and compares one "grid/file sha256" line per file
// with testdata/golden_traces.txt. A change that reorders same-instant
// events can leave every result byte alone and still move a trace;
// this is the test that sees it. `make golden` refreshes the pin.
func TestGoldenTraces(t *testing.T) {
	grids := []struct {
		name string
		g    sweep.Grid
	}{
		{"sweep", goldenGrid()},
		{"faults", goldenFaultGrid()},
		{"kv", goldenKVGrid()},
		{"chaos", goldenChaosGrid()},
	}
	var buf bytes.Buffer
	for _, gc := range grids {
		g := gc.g
		g.Trace, g.Timeline = true, true
		scenarios, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, r := range sweep.Run(scenarios, sweep.Options{Workers: 4, ObsDir: dir}) {
			if r.Err != "" {
				t.Fatalf("%s scenario %s failed: %s", gc.name, r.Scenario.Key(), r.Err)
			}
		}
		entries, err := os.ReadDir(dir) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2*len(scenarios) {
			t.Fatalf("%s grid wrote %d obs files for %d scenarios", gc.name, len(entries), len(scenarios))
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s/%s %x\n", gc.name, e.Name(), sha256.Sum256(b))
		}
	}
	checkGolden(t, "golden_traces.txt", buf.Bytes())
}

// wallClockColumns names, per table ID, the columns whose cells time the
// host (fig10 races greedy against grid search on the wall clock). They
// are blanked before rendering: String sizes each column from its
// longest cell, so blanking after rendering would still leak the
// timings into the padding.
var wallClockColumns = map[string][]string{
	"fig10": {"greedy_ms", "grid_ms", "speedup"},
}

// TestGoldenTables pins every paper artifact apparate-bench renders: one
// parallel subtest per experiments.IDs() entry byte-compares the
// artifact's rendered tables against testdata/tables/<id>.txt, so a
// failure names the artifact. Only the wallClockColumns cells are left
// out. `make golden` refreshes the pins.
func TestGoldenTables(t *testing.T) {
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tables, err := experiments.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tb := range tables {
				blankColumns(&tb, wallClockColumns[tb.ID])
				buf.WriteString(tb.String())
				buf.WriteByte('\n')
			}
			checkGolden(t, filepath.Join("tables", id+".txt"), buf.Bytes())
		})
	}
}

// blankColumns empties every row's cells under the named header columns.
func blankColumns(tb *experiments.Table, names []string) {
	for i, h := range tb.Header {
		if !slices.Contains(names, h) {
			continue
		}
		for _, row := range tb.Rows {
			row[i] = ""
		}
	}
}

// checkGolden compares got against testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (run `make golden` to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Fatalf("output diverged from %s:\n%s\nIf the change is intended, refresh with `make golden` and commit the diff.",
		path, firstDiff(want, got))
}

// firstDiff renders the first differing line of two golden bodies.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("golden has %d lines, got %d", len(wl), len(gl))
}
