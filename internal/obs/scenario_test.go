package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// record runs sc with its trace streamed as JSONL and returns the
// events decoded from it. The decoded events must re-encode through
// WriteJSONL to the streamed bytes, so the decoding loses nothing.
func record(tb testing.TB, sc core.Scenario) []obs.Event {
	tb.Helper()
	sc.Trace = true
	var jsonl bytes.Buffer
	if _, _, err := core.RunScenarioTo(sc, &jsonl, nil, nil); err != nil {
		tb.Fatal(err)
	}
	evs := decodeJSONL(tb, jsonl.Bytes())
	tr := obs.NewTracer()
	for _, e := range evs {
		tr.Emit(e)
	}
	var again bytes.Buffer
	if err := tr.WriteJSONL(&again); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), jsonl.Bytes()) {
		tb.Fatalf("%d decoded events re-encode to %d bytes, not the %d streamed", len(evs), again.Len(), jsonl.Len())
	}
	return evs
}

// jsonEvent is obs.Event with the JSONL keys as tags.
type jsonEvent struct {
	TMS     float64  `json:"t"`
	Kind    obs.Kind `json:"kind"`
	Req     int      `json:"req"`
	Replica int      `json:"replica"`
	Batch   int      `json:"batch"`
	Val     int      `json:"val"`
	DurMS   float64  `json:"dur_ms"`
	LatMS   float64  `json:"lat_ms"`
}

// decodeJSONL decodes a JSONL trace, one event per line; a line without
// req or replica gets the -1 sentinel, and an unknown key fails.
func decodeJSONL(tb testing.TB, b []byte) []obs.Event {
	tb.Helper()
	var evs []obs.Event
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	for dec.More() {
		e := jsonEvent{Req: -1, Replica: -1}
		if err := dec.Decode(&e); err != nil {
			tb.Fatalf("JSONL event %d: %v", len(evs), err)
		}
		evs = append(evs, obs.Event(e))
	}
	return evs
}

// clusterScenario runs a two-replica cluster under faults, hedging and
// autoscaling, which shows every cluster event kind; genKVScenario runs
// the generative engine with a KV pool small enough to preempt, a prefix
// cache and chunked prefill, which shows every sequence kind.
var (
	clusterScenario = core.Scenario{Model: "distilbert-base", Workload: "amazon", Platform: "clockwork",
		Replicas: 2, Dispatch: "least-loaded", Autoscale: "1..3", RateSchedule: "square:30/0.5/2",
		Faults: "mtbf:800/200;loss=0.05", Retry: "attempts=2/hedge=95", N: 2000, Seed: 1}
	genKVScenario = core.Scenario{Model: "t5-large", Workload: "cnn-dailymail", KVBlocks: 48, PrefixHit: 0.5,
		PrefillChunk: 256, N: 300, Seed: 1}
)

// TestTracerEncodingMatchesReference: the events of real runs, streamed
// through NewTracerTo and written by WriteJSONL, encode to the
// reference renderer's bytes. The cluster run has faults, hedging and
// autoscaling, and shows every cluster event kind; the generative run
// uses a KV pool small enough to preempt, a prefix cache and chunked
// prefill, and shows every sequence kind.
func TestTracerEncodingMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sc    core.Scenario
		kinds []obs.Kind
	}{
		{
			name: "cluster",
			sc:   clusterScenario,
			kinds: []obs.Kind{obs.KindArrive, obs.KindDispatch, obs.KindEnqueue, obs.KindServeStart, obs.KindComplete,
				obs.KindDrop, obs.KindRequeue, obs.KindRetry, obs.KindHedge, obs.KindPark, obs.KindLost, obs.KindTimeout,
				obs.KindCrash, obs.KindRestart, obs.KindScaleUp, obs.KindScaleDown, obs.KindOutageStart, obs.KindOutageEnd},
		},
		{
			name: "gen-kv",
			sc:   genKVScenario,
			kinds: []obs.Kind{obs.KindSeqArrive, obs.KindKVAdmit, obs.KindPrefixHit, obs.KindPrefillChunk,
				obs.KindDecodeFlush, obs.KindPreempt, obs.KindSeqRequeue, obs.KindSeqComplete},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := record(t, tc.sc)
			n := map[obs.Kind]int{}
			for _, e := range evs {
				n[e.Kind]++
			}
			for _, k := range tc.kinds {
				if n[k] == 0 {
					t.Errorf("the run shows no %s event (kinds: %v)", k, n)
				}
			}
			obs.CheckJSONL(t, evs)
		})
	}
}

// chaosScenario has the knobs of one scenario of apparate-perf's
// cluster-chaos-traced grid; the grid would derive its seed from 1.
var chaosScenario = core.Scenario{Model: "resnet50", Workload: "video-1", Platform: "clockwork",
	Replicas: 8, Dispatch: "least-loaded", Hetero: "1,0.5", Autoscale: "2..8", RateSchedule: "square:30/0.5/2",
	Faults: "mtbf:20000/1000;delaydist=exp:1;loss=0.001", Retry: "attempts=3/hedge=95", N: 3000, Seed: 1}

// TestStreamedChromeStructure: the Chrome trace that a chaos-like
// cluster run and a generative KV run stream is one JSON document in
// which every track in use is named exactly once, before its first
// record, after the trace's layout (dispatcher and replicas, or queue
// and slots), and the tracks named are 0 through the largest in use.
func TestStreamedChromeStructure(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sc            core.Scenario
		track0, track string
	}{
		{"cluster", chaosScenario, "dispatcher", "replica"},
		{"gen-kv", genKVScenario, "queue", "slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Trace = true
			var chrome bytes.Buffer
			if _, _, err := core.RunScenarioTo(sc, nil, &chrome, nil); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Ph   string `json:"ph"`
					Tid  int    `json:"tid"`
					Name string `json:"name"`
					Args struct {
						Name string `json:"name"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
				t.Fatalf("the streamed Chrome trace is not JSON: %v", err)
			}
			named, used := map[int]bool{}, map[int]bool{}
			maxTid := -1
			for i, ev := range doc.TraceEvents {
				if ev.Ph != "M" {
					if !named[ev.Tid] {
						t.Fatalf("record %d is on track %d before the track is named", i, ev.Tid)
					}
					used[ev.Tid] = true
					maxTid = max(maxTid, ev.Tid)
					continue
				}
				want := tc.track0
				if ev.Tid > 0 {
					want = fmt.Sprintf("%s %d", tc.track, ev.Tid-1)
				}
				if ev.Name != "thread_name" || ev.Args.Name != want {
					t.Fatalf("record %d names track %d %s %q, want thread_name %q", i, ev.Tid, ev.Name, ev.Args.Name, want)
				}
				if named[ev.Tid] {
					t.Fatalf("record %d names track %d a second time", i, ev.Tid)
				}
				named[ev.Tid] = true
			}
			if maxTid < 2 || len(used) < 3 {
				t.Fatalf("records on %d tracks, the largest %d; want several", len(used), maxTid)
			}
			if len(named) != maxTid+1 {
				t.Fatalf("%d tracks named, want tracks 0 through %d", len(named), maxTid)
			}
		})
	}
}

// BenchmarkTracerEmit measures one Emit into a buffered tracer (append
// to Events, amortized slice growth included) and into a streaming
// tracer writing JSONL to io.Discard (encode + buffered write), over
// synthetic events that each carry their own time and long floats. The
// buffered tracer is replaced every 1<<20 events so a long benchmark
// run cannot hold an unbounded trace.
//
// The chaos sub-benchmarks stream the events of one recorded
// cluster-chaos-traced scenario, whose times and batch durations repeat
// as real traffic's do, through a fresh streaming tracer and flush it:
// into io.Discard, which times the encoder and its memos, and into a
// file, which adds the sink's writes. One op is the whole trace;
// ns/event and B/event (JSONL bytes written) are per event.
func BenchmarkTracerEmit(b *testing.B) {
	evs := obs.SampleEvents()
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		var tr *obs.Tracer
		for i := 0; i < b.N; i++ {
			if i&(1<<20-1) == 0 {
				tr = obs.NewTracer()
			}
			tr.Emit(evs[i%len(evs)])
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		tr := obs.NewTracerTo(io.Discard, nil)
		for i := 0; i < b.N; i++ {
			tr.Emit(evs[i%len(evs)])
		}
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	chaos := record(b, chaosScenario)
	f, err := os.Create(filepath.Join(b.TempDir(), "trace.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for _, dst := range []struct {
		name string
		w    io.WriteSeeker
	}{{"chaos/discard", discard{}}, {"chaos/file", f}} {
		b.Run(dst.name, func(b *testing.B) {
			b.ReportAllocs()
			var written int64
			for b.Loop() {
				if _, err := dst.w.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				cw := &counter{w: dst.w}
				tr := obs.NewTracerTo(cw, nil)
				for _, e := range chaos {
					tr.Emit(e)
				}
				if err := tr.Flush(); err != nil {
					b.Fatal(err)
				}
				written = cw.n
			}
			events := float64(b.N) * float64(len(chaos))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(written)/float64(len(chaos)), "B/event")
		})
	}
}

// discard is io.Discard with a Seek that does nothing.
type discard struct{}

func (discard) Write(p []byte) (int, error)    { return len(p), nil }
func (discard) Seek(int64, int) (int64, error) { return 0, nil }

// counter counts the bytes written through it.
type counter struct {
	w io.Writer
	n int64
}

func (c *counter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
