package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
)

// runBuffered runs sc like RunScenarioTo, with buffered sinks attached
// through run's openSinks seam: the reference the streamed bytes are
// checked against.
func runBuffered(tb testing.TB, sc Scenario) (*Result, ObsData) {
	tb.Helper()
	res, od, err := run(sc, func(sc Scenario, sloMS float64) (od ObsData) {
		if sc.Trace {
			od.Trace = obs.NewTracer()
		}
		if sc.Timeline {
			od.Timeline = obs.NewTimeline(sc.ObsTickMS, sloMS)
		}
		return od
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res, od
}

// streamScenarios covers every simulator a streamed sink can attach
// to: single-replica serving.Run, faulty+hedged and autoscaled
// RunCluster, and the generative engine without and with KV knobs.
var streamScenarios = []struct {
	name string
	sc   Scenario
}{
	{"single", Scenario{Model: "resnet50", Workload: "video-0", N: 1500, Seed: 5}},
	{"faulty-hedged", Scenario{Model: "resnet50", Workload: "video-1", N: 2000, Seed: 4, Replicas: 2,
		Dispatch: "least-loaded", Faults: "crash:r1@1500+800;mtbf:8000/1000;delaydist=exp:2;loss=0.002",
		Retry: "attempts=3/hedge=95"}},
	{"autoscaled", Scenario{Model: "bert-base", Workload: "amazon", N: 2000, Seed: 3,
		RateSchedule: "phases:15x1/15x4", Autoscale: "1..4"}},
	{"gen-classic", Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 12, Seed: 8}},
	{"gen-kv", Scenario{Model: "t5-large", Workload: "squad", N: 12, Seed: 8,
		KVBlocks: 48, PrefixHit: 0.4, PrefillChunk: 128}},
}

// TestRunScenarioToMatchesBuffered: streaming a scenario's trace and
// timeline writes exactly the bytes the buffered sinks' WriteJSONL,
// WriteChrome and WriteCSV write, keeps nothing in memory, and returns
// the same Result as the buffered and the untraced runs.
func TestRunScenarioToMatchesBuffered(t *testing.T) {
	for _, tc := range streamScenarios {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Trace, sc.Timeline, sc.ObsTickMS = true, true, 50
			bres, bod := runBuffered(t, sc)
			var wantTrace, wantChrome, wantTimeline bytes.Buffer
			if err := bod.Trace.WriteJSONL(&wantTrace); err != nil {
				t.Fatal(err)
			}
			if err := bod.Trace.WriteChrome(&wantChrome); err != nil {
				t.Fatal(err)
			}
			if err := bod.Timeline.WriteCSV(&wantTimeline); err != nil {
				t.Fatal(err)
			}

			var gotTrace, gotChrome, gotTimeline bytes.Buffer
			sres, sod, err := RunScenarioTo(sc, &gotTrace, &gotChrome, &gotTimeline)
			if err != nil {
				t.Fatal(err)
			}
			if *sres != *bres {
				t.Fatalf("streaming changed the result:\nstreamed: %+v\nbuffered: %+v", sres, bres)
			}
			plain, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if *sres != *plain {
				t.Fatalf("streamed result differs from the untraced run:\nstreamed: %+v\nplain:    %+v", sres, plain)
			}
			if tc.name == "faulty-hedged" && (sres.Crashes == 0 || sres.Hedges == 0) ||
				tc.name == "autoscaled" && sres.ScaleUps == 0 ||
				tc.name == "gen-kv" && sres.PrefixHits == 0 {
				t.Fatalf("scenario misses the mechanism it is here for: %+v", sres)
			}
			if bod.Trace.Len() == 0 || bod.Timeline.Len() == 0 {
				t.Fatalf("buffered sinks are empty: %d events, %d rows", bod.Trace.Len(), bod.Timeline.Len())
			}
			if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
				t.Errorf("streamed JSONL (%d bytes) differs from WriteJSONL (%d bytes)", gotTrace.Len(), wantTrace.Len())
			}
			if !bytes.Equal(gotChrome.Bytes(), wantChrome.Bytes()) {
				t.Errorf("streamed Chrome trace (%d bytes) differs from WriteChrome (%d bytes)", gotChrome.Len(), wantChrome.Len())
			}
			if !bytes.Equal(gotTimeline.Bytes(), wantTimeline.Bytes()) {
				t.Errorf("streamed CSV (%d bytes) differs from WriteCSV (%d bytes)", gotTimeline.Len(), wantTimeline.Len())
			}
			if sod.Trace.Len() != bod.Trace.Len() || sod.Timeline.Len() != bod.Timeline.Len() {
				t.Errorf("streamed counts %d events/%d rows, buffered %d/%d",
					sod.Trace.Len(), sod.Timeline.Len(), bod.Trace.Len(), bod.Timeline.Len())
			}
			if len(sod.Trace.Events) != 0 || len(sod.Timeline.Rows) != 0 {
				t.Errorf("streaming sinks kept %d events and %d rows in memory", len(sod.Trace.Events), len(sod.Timeline.Rows))
			}
		})
	}
}

// TestRunScenarioToSinksFollowKnobsAndWriters: a sink streams only
// when its knob is set and its writer is non-nil.
func TestRunScenarioToSinksFollowKnobsAndWriters(t *testing.T) {
	sc := Scenario{Model: "resnet18", Workload: "video-0", N: 300, Seed: 2, Trace: true}
	var tw, lw bytes.Buffer
	_, od, err := RunScenarioTo(sc, &tw, nil, &lw)
	if err != nil {
		t.Fatal(err)
	}
	if od.Trace == nil || tw.Len() == 0 {
		t.Fatal("Trace knob with a writer did not stream a trace")
	}
	if od.Timeline != nil || lw.Len() != 0 {
		t.Fatal("timeline streamed although the Timeline knob is off")
	}
	sc.Timeline = true
	_, od, err = RunScenarioTo(sc, nil, nil, &lw)
	if err != nil {
		t.Fatal(err)
	}
	if od.Trace != nil {
		t.Fatal("a nil trace writer still built a trace sink")
	}
	if od.Timeline == nil || lw.Len() == 0 {
		t.Fatal("Timeline knob with a writer did not stream a timeline")
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, errDiskFull
}

// TestRunScenarioToReturnsWriteError: a destination that fails after k
// bytes — mid-run or at the final flush — makes the run return that
// error, while the simulation itself still completes with the untraced
// Result.
func TestRunScenarioToReturnsWriteError(t *testing.T) {
	sc := Scenario{Model: "resnet50", Workload: "video-0", N: 1500, Seed: 5, Trace: true, Timeline: true}
	plain, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var tw, lw bytes.Buffer
	if _, _, err := RunScenarioTo(sc, &tw, nil, &lw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1000, tw.Len() - 1} {
		res, _, err := RunScenarioTo(sc, &failAfter{k: k}, nil, &bytes.Buffer{})
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("trace writer failing after %d of %d bytes: err = %v, want %v", k, tw.Len(), err, errDiskFull)
		}
		if res == nil || *res != *plain {
			t.Fatalf("k=%d: result %+v, want the untraced run's", k, res)
		}
	}
	for _, k := range []int{0, 1000, lw.Len() - 1} {
		res, _, err := RunScenarioTo(sc, &bytes.Buffer{}, nil, &failAfter{k: k})
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("timeline writer failing after %d of %d bytes: err = %v, want %v", k, lw.Len(), err, errDiskFull)
		}
		if res == nil || *res != *plain {
			t.Fatalf("k=%d: result %+v, want the untraced run's", k, res)
		}
	}
}
