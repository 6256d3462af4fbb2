package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// runMain is the first argument that makes the test binary run the
// command itself instead of the tests, so a test can run it in a
// subprocess and see its exit code and output.
const runMain = "apparate-serve-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serve runs the command with args in a subprocess and returns its
// stdout, its stderr and its exit code.
func serve(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMain}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// faultArgs is a small 4-replica fault scenario: a crash, lossy
// transit, retries and hedging. faultScenario is the same scenario.
var (
	faultArgs = []string{"-model", "resnet18", "-workload", "video-0", "-replicas", "4",
		"-dispatch", "least-loaded", "-faults", "crash:r1@2000+500;loss=0.01",
		"-retry", "attempts=2/hedge=95", "-n", "3000", "-obs-tick", "50"}
	faultScenario = core.Scenario{Model: "resnet18", Workload: "video-0", Platform: "clockwork",
		Dispatch: "least-loaded", Replicas: 4, N: 3000, Seed: 1, RateMult: 1, RampBudget: 0.02,
		AccLoss: 0.01, Metrics: "exact", Faults: "crash:r1@2000+500;loss=0.01",
		Retry: "attempts=2/hedge=95", Trace: true, Timeline: true, ObsTickMS: 50}
)

// TestServeStreamsEverySink: with -trace, -trace-chrome and -timeline
// the command writes all three files; the JSONL and CSV are the bytes
// core.RunScenarioTo streams for the same scenario, and the Chrome file
// is one JSON document.
func TestServeStreamsEverySink(t *testing.T) {
	dir := t.TempDir()
	trace, chrome, timeline := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.trace.json"), filepath.Join(dir, "run.csv")
	stdout, stderr, code := serve(t, append(faultArgs, "-trace", trace, "-trace-chrome", chrome, "-timeline", timeline)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "faults:") {
		t.Fatalf("stdout has no faults line:\n%s", stdout)
	}
	var wantTrace, wantTimeline bytes.Buffer
	res, _, err := core.RunScenarioTo(faultScenario, &wantTrace, nil, &wantTimeline)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Hedges == 0 || res.Lost == 0 {
		t.Fatalf("the scenario shows no fault path: %+v", res)
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{trace, wantTrace.Bytes()}, {timeline, wantTimeline.Bytes()}} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s: %d bytes, differs from RunScenarioTo's %d", filepath.Base(f.path), len(got), len(f.want))
		}
	}
	b, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("the Chrome file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) < res.Requests {
		t.Fatalf("the Chrome file holds %d records for %d requests", len(doc.TraceEvents), res.Requests)
	}
}

// TestServeBadOutputPathFailsBeforeRun: an output path in a directory
// that does not exist, for any of the three sinks, exits 1 with an
// error and prints no result.
func TestServeBadOutputPathFailsBeforeRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out")
	for _, sink := range []string{"-trace", "-trace-chrome", "-timeline"} {
		stdout, stderr, code := serve(t, append(faultArgs, sink, missing)...)
		if code != 1 || stdout != "" || stderr == "" {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout and an error", sink, missing, code, stdout, stderr)
		}
	}
}
