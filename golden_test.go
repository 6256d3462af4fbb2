package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// goldenTableIDs are the paper artifacts whose rendered tables are
// pinned in testdata/golden_tables.txt. table1, table2 and fig15 are
// built on threshold-search replay: table1 and table2 tune the static-EE
// baselines once, fig15 retunes the online-optimal baseline every chunk,
// and all three serve Apparate's continually tuned controller beside
// them. fig18 pins the generative policies: T5-large under FREE,
// Apparate and the optimal oracle on cnn-dailymail and squad, and
// Llama-2 7B/13B under Apparate and optimal on squad.
var goldenTableIDs = []string{"table1", "table2", "fig15", "fig18"}

// TestGoldenTables byte-compares the rendered goldenTableIDs tables
// against testdata/golden_tables.txt; `make golden` refreshes the pin.
func TestGoldenTables(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range goldenTableIDs {
		tables, err := experiments.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			buf.WriteString(tb.String())
			buf.WriteByte('\n')
		}
	}
	checkGolden(t, "golden_tables.txt", buf.Bytes())
}

// checkGolden compares got against testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
