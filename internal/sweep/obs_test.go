package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// obsGrid is a small mixed grid — single-replica, cluster, reliable,
// and faulty points — with both observability sinks on.
func obsGrid() Grid {
	return Grid{
		Models:    []string{"resnet18"},
		Workloads: []string{"video-0"},
		Platforms: []string{"clockwork"},
		Replicas:  []int{1, 2},
		Faults:    []string{"", "crash:r0@1000+400;loss=0.01"},
		Retries:   []string{"", "attempts=2"},
		Trace:     true,
		Timeline:  true,
		ObsTickMS: 200,
		N:         600,
		Seed:      11,
	}
}

// TestObsKnobsDoNotChangeIdentity pins the observability axiom at the
// grid level: a traced grid expands to the same scenarios, identities,
// and seeds as an untraced one.
func TestObsKnobsDoNotChangeIdentity(t *testing.T) {
	traced := obsGrid()
	plain := traced
	plain.Trace, plain.Timeline, plain.ObsTickMS = false, false, 0
	ts, err := traced.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(ps) {
		t.Fatalf("traced grid expands to %d scenarios, plain to %d", len(ts), len(ps))
	}
	for i := range ts {
		if ts[i].Identity() != ps[i].Identity() || ts[i].Seed != ps[i].Seed {
			t.Fatalf("scenario %d: traced (%s, seed %d) != plain (%s, seed %d)",
				i, ts[i].Identity(), ts[i].Seed, ps[i].Identity(), ps[i].Seed)
		}
		if !ts[i].Trace || !ts[i].Timeline || ts[i].ObsTickMS != 200 {
			t.Fatalf("scenario %d lost its observability knobs: %+v", i, ts[i])
		}
	}
}

// TestObsFilesDeterministicAcrossWorkers is the observability
// byte-identity gate: a traced sweep at 1 worker and at 8 workers must
// write identical trace and timeline files for every scenario.
func TestObsFilesDeterministicAcrossWorkers(t *testing.T) {
	scs, err := obsGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 4 {
		t.Fatalf("obs grid expanded to only %d scenarios", len(scs))
	}
	runTo := func(workers int) string {
		dir := t.TempDir()
		results := Run(scs, Options{Workers: workers, ObsDir: dir})
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("scenario %s failed: %s", r.Scenario.Key(), r.Err)
			}
		}
		return dir
	}
	d1, d8 := runTo(1), runTo(8)
	for i := range scs {
		for _, pat := range []string{"trace_%03d.jsonl", "timeline_%03d.csv"} {
			name := filepath.Join(d1, fmt.Sprintf(pat, i))
			b1, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("missing obs file for scenario %d: %v", i, err)
			}
			if len(b1) == 0 {
				t.Fatalf("obs file %s is empty", name)
			}
			b8, err := os.ReadFile(filepath.Join(d8, fmt.Sprintf(pat, i)))
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b8) {
				t.Fatalf("obs file %s differs between -workers 1 and -workers 8", fmt.Sprintf(pat, i))
			}
		}
	}
}

// genObsGrid is a traced generative grid: bounded and unbounded pools,
// with and without prefix caching and chunked prefill — the no-knob
// point included.
func genObsGrid() Grid {
	return Grid{
		Models:        []string{"t5-large"},
		Workloads:     []string{"cnn-dailymail"},
		KVBlocks:      []int{0, 48},
		PrefixHits:    []float64{0, 0.4},
		PrefillChunks: []int{0, 128},
		Trace:         true,
		Timeline:      true,
		ObsTickMS:     200,
		GenN:          12,
		Seed:          8,
	}
}

// TestGenObsFilesDeterministicAcrossWorkers extends the observability
// byte-identity gate to the generative path: traced KV sweeps at 1 and
// 8 workers write identical trace and timeline files.
func TestGenObsFilesDeterministicAcrossWorkers(t *testing.T) {
	scs, err := genObsGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 4 {
		t.Fatalf("gen obs grid expanded to only %d scenarios", len(scs))
	}
	for _, sc := range scs {
		if !sc.Generative() {
			t.Fatalf("scenario %s is not generative", sc.Key())
		}
		if !sc.Trace || !sc.Timeline {
			t.Fatalf("generative scenario %s lost its observability knobs", sc.Key())
		}
	}
	runTo := func(workers int) string {
		dir := t.TempDir()
		results := Run(scs, Options{Workers: workers, ObsDir: dir})
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("scenario %s failed: %s", r.Scenario.Key(), r.Err)
			}
		}
		return dir
	}
	d1, d8 := runTo(1), runTo(8)
	for i := range scs {
		for _, pat := range []string{"trace_%03d.jsonl", "timeline_%03d.csv"} {
			name := filepath.Join(d1, fmt.Sprintf(pat, i))
			b1, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("missing gen obs file for scenario %d: %v", i, err)
			}
			if len(b1) == 0 {
				t.Fatalf("gen obs file %s is empty", name)
			}
			b8, err := os.ReadFile(filepath.Join(d8, fmt.Sprintf(pat, i)))
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b8) {
				t.Fatalf("gen obs file %s differs between -workers 1 and -workers 8", fmt.Sprintf(pat, i))
			}
		}
	}
}

// TestObsDirUnsetSkipsWriting checks a traced grid with no ObsDir still
// runs (sinks collected and discarded) and writes nothing.
func TestObsDirUnsetSkipsWriting(t *testing.T) {
	sc := core.Scenario{
		Model: "resnet18", Workload: "video-0", N: 300, Trace: true, Timeline: true,
	}.Normalize()
	results := Run([]core.Scenario{sc}, Options{Workers: 2})
	if results[0].Err != "" {
		t.Fatalf("traced scenario failed without ObsDir: %s", results[0].Err)
	}
	if results[0].Requests != 300 {
		t.Fatalf("Requests = %d, want 300", results[0].Requests)
	}
}

// TestFailedTracedScenarioLeavesNoFiles: a traced scenario that fails
// leaves no trace or timeline file, whether it is rejected before the
// run (an invalid spec) or fails after its trace file was created (the
// timeline file cannot be created). A good scenario in the same sweep
// still writes both.
func TestFailedTracedScenarioLeavesNoFiles(t *testing.T) {
	good := core.Scenario{Model: "resnet18", Workload: "video-0", N: 300, Seed: 1, Trace: true, Timeline: true}
	invalid := good
	invalid.Faults = "crash:r9@-5"
	blocked := good
	blocked.Seed = 2
	dir := t.TempDir()
	// A directory squatting on scenario 2's timeline name makes creating
	// that file fail after its trace file already exists.
	if err := os.Mkdir(filepath.Join(dir, "timeline_002.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	results := Run([]core.Scenario{good, invalid, blocked}, Options{Workers: 1, ObsDir: dir})
	if results[0].Err != "" {
		t.Fatalf("good scenario failed: %s", results[0].Err)
	}
	if results[1].Err == "" || results[2].Err == "" {
		t.Fatalf("failing scenarios reported no error: %q, %q", results[1].Err, results[2].Err)
	}
	for _, name := range []string{"trace_000.jsonl", "timeline_000.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("good scenario's %s missing or empty (err %v)", name, err)
		}
	}
	for _, name := range []string{"trace_001.jsonl", "timeline_001.csv", "trace_002.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("failed scenario left %s behind (stat err %v)", name, err)
		}
	}
}
