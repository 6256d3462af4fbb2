package obs_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// record runs sc with a buffered tracer and returns its events.
func record(tb testing.TB, sc core.Scenario) []obs.Event {
	tb.Helper()
	sc.Trace = true
	_, od, err := core.RunScenarioObs(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return od.Trace.Events
}

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
			sc: core.Scenario{Model: "distilbert-base", Workload: "amazon", Platform: "clockwork",
				Replicas: 2, Dispatch: "least-loaded", Autoscale: "1..3", RateSchedule: "square:30/0.5/2",
				Faults: "mtbf:800/200;loss=0.05", Retry: "attempts=2/hedge=95", N: 2000, Seed: 1},
			kinds: []obs.Kind{obs.KindArrive, obs.KindDispatch, obs.KindEnqueue, obs.KindServeStart, obs.KindComplete,
				obs.KindDrop, obs.KindRequeue, obs.KindRetry, obs.KindHedge, obs.KindPark, obs.KindLost, obs.KindTimeout,
				obs.KindCrash, obs.KindRestart, obs.KindScaleUp, obs.KindScaleDown, obs.KindOutageStart, obs.KindOutageEnd},
		},
		{
			name: "gen-kv",
			sc: core.Scenario{Model: "t5-large", Workload: "cnn-dailymail", KVBlocks: 48, PrefixHit: 0.5,
				PrefillChunk: 256, N: 300, Seed: 1},
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
		tr := obs.NewTracerTo(io.Discard)
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
				tr := obs.NewTracerTo(cw)
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
