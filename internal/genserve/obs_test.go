package genserve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/exitsim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// tracedKVEngine is the reconciliation workhorse: a pool two growing
// sequences overflow (preemptions), a prefix cache (hits), chunked
// prefill, and all-at-once arrivals (queue waits).
func tracedKVEngine() *Engine {
	e := kvEngine()
	e.KVBlocks = 10
	e.BlockTokens = 8
	e.PrefixHitRatio = 0.4
	e.PrefillChunkTokens = 8
	e.Seed = 7
	return e
}

func countKind(tr *obs.Tracer, k obs.Kind) int {
	n := 0
	for _, e := range tr.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestGenTraceReconcilesWithStats pins the reconciliation contract: the
// trace's event counts and summed fields equal the run's Stats exactly
// (floats within addition-order epsilon), and the timeline's per-row
// block-ms integrals telescope to KVUtil × KVBlocks × makespan. It holds
// on the KV workhorse and on a saturated engine with no KV knob, whose
// two slots leave four of six sequences queued.
func TestGenTraceReconcilesWithStats(t *testing.T) {
	saturated := kvEngine()
	saturated.MaxConcurrent = 2
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"kv", tracedKVEngine()}, {"no-knob", saturated}} {
		t.Run(tc.name, func(t *testing.T) { checkGenTraceReconciles(t, tc.e) })
	}
}

func checkGenTraceReconciles(t *testing.T, e *Engine) {
	tr := obs.NewTracer()
	tl := obs.NewTimeline(50, 0)
	e.Trace, e.Timeline = tr, tl
	st := e.Run(kvStream(6, 24, 64), VanillaGen{})
	if e.KVBlocks > 0 && (st.Preemptions == 0 || st.PrefixHits == 0) {
		t.Fatalf("scenario exercises nothing: preempt=%d hits=%d", st.Preemptions, st.PrefixHits)
	}
	if got := countKind(tr, obs.KindPreempt); got != st.Preemptions {
		t.Fatalf("%d preempt events, Stats.Preemptions = %d", got, st.Preemptions)
	}
	if got := countKind(tr, obs.KindSeqRequeue); got != st.Preemptions {
		t.Fatalf("%d seq_requeue events, want one per preemption (%d)", got, st.Preemptions)
	}
	if got := countKind(tr, obs.KindPrefixHit); got != st.PrefixHits {
		t.Fatalf("%d prefix_hit events, Stats.PrefixHits = %d", got, st.PrefixHits)
	}
	if got := countKind(tr, obs.KindSeqArrive); got != 6 {
		t.Fatalf("%d seq_arrive events, want 6 (one per request, re-queues excluded)", got)
	}
	if got := countKind(tr, obs.KindSeqComplete); got != st.Seqs {
		t.Fatalf("%d seq_complete events, Stats.Seqs = %d", got, st.Seqs)
	}
	// Every admission's queue wait is carried in its kv_admit; the sum
	// is the run's total wait, re-queues included.
	wait := 0.0
	for _, ev := range tr.Events {
		if ev.Kind == obs.KindKVAdmit {
			wait += ev.DurMS
		}
	}
	if want := st.QueueMS * float64(st.Seqs); math.Abs(wait-want) > 1e-6*want {
		t.Fatalf("summed kv_admit waits %v, Stats.QueueMS×Seqs = %v", wait, want)
	}
	if wait == 0 {
		t.Fatal("no admission waited: the scenario does not queue")
	}
	// Committed decode flushes account for every generated token exactly
	// once (preempted stretches recompute, but only commits emit).
	decoded := 0
	for _, ev := range tr.Events {
		if ev.Kind == obs.KindDecodeFlush {
			decoded += ev.Val
		}
	}
	if decoded != st.TotalTokens {
		t.Fatalf("decode_flush tokens sum to %d, Stats.TotalTokens = %d", decoded, st.TotalTokens)
	}
	// The timeline's kv_block_ms column telescopes to the exact pool
	// integral: KVUtil × KVBlocks × makespan.
	blockMS, preempts, complete := 0.0, 0, 0
	for _, r := range tl.Rows {
		blockMS += r.Gauges.KVBlockMS
		preempts = r.Gauges.Preempts
		complete += r.WinDone
	}
	want := st.KVUtil * float64(e.KVBlocks) * (lastCompletion(tr) - 0)
	if math.Abs(blockMS-want) > 1e-6*want {
		t.Fatalf("timeline block-ms sums to %v, KVUtil×KVBlocks×span = %v", blockMS, want)
	}
	if preempts != st.Preemptions {
		t.Fatalf("final timeline row carries %d preemptions, Stats = %d", preempts, st.Preemptions)
	}
	if complete != st.Seqs {
		t.Fatalf("timeline windows observed %d completions, Stats.Seqs = %d", complete, st.Seqs)
	}
}

// lastCompletion is the trace's last seq_complete instant — the
// generative makespan's right edge (arrivals here are all at 0).
func lastCompletion(tr *obs.Tracer) float64 {
	last := 0.0
	for _, e := range tr.Events {
		if e.Kind == obs.KindSeqComplete && e.TMS > last {
			last = e.TMS
		}
	}
	return last
}

// TestGenTracingDoesNotChangeResults: the sinks are passive — every
// Stats observable is bit-identical with and without them, with and
// without KV knobs.
func TestGenTracingDoesNotChangeResults(t *testing.T) {
	run := func(kv, traced bool) *Stats {
		var e *Engine
		if kv {
			e = tracedKVEngine()
		} else {
			e = kvEngine()
		}
		if traced {
			e.Trace, e.Timeline = obs.NewTracer(), obs.NewTimeline(50, 0)
		}
		return e.Run(kvStream(6, 24, 64), VanillaGen{})
	}
	for _, kv := range []bool{true, false} {
		off, on := run(kv, false), run(kv, true)
		if off.Seqs != on.Seqs || off.TotalTokens != on.TotalTokens ||
			off.TokensPerSec != on.TokensPerSec || off.MeanScore != on.MeanScore ||
			off.KVUtil != on.KVUtil || off.QueueMS != on.QueueMS ||
			off.Preemptions != on.Preemptions || off.PrefixHits != on.PrefixHits {
			t.Fatalf("kv=%v: tracing changed results: off=%+v on=%+v", kv, off, on)
		}
		if off.TotalTokens > 0 && off.TPT().Percentile(99) != on.TPT().Percentile(99) {
			t.Fatalf("kv=%v: tracing moved p99 TPT", kv)
		}
	}
}

// TestGenTraceDeterministicAcrossRuns: two identical traced runs write
// byte-identical JSONL, Chrome, and CSV files.
func TestGenTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() (*obs.Tracer, *obs.Timeline) {
		e := tracedKVEngine()
		e.Trace, e.Timeline = obs.NewTracer(), obs.NewTimeline(50, 0)
		e.Run(kvStream(6, 24, 64), VanillaGen{})
		return e.Trace, e.Timeline
	}
	tr1, tl1 := run()
	tr2, tl2 := run()
	var a, b bytes.Buffer
	if err := tr1.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeat traced runs wrote different JSONL")
	}
	a.Reset()
	b.Reset()
	if err := tr1.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeat traced runs wrote different Chrome traces")
	}
	a.Reset()
	b.Reset()
	if err := tl1.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := tl2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeat traced runs wrote different timeline CSVs")
	}
}

// TestGenClassicPathTraced: a run with no KV knob — the paper's classic
// configuration — traces arrivals, admissions, and completions on
// per-slot tracks, and the timeline uses the generative column set.
func TestGenClassicPathTraced(t *testing.T) {
	e := kvEngine()
	e.MaxConcurrent = 2
	tr := obs.NewTracer()
	tl := obs.NewTimeline(50, 0)
	e.Trace, e.Timeline = tr, tl
	st := e.Run(kvStream(5, 24, 16), VanillaGen{})
	if st.Seqs != 5 {
		t.Fatalf("completed %d sequences, want 5", st.Seqs)
	}
	if got := countKind(tr, obs.KindSeqArrive); got != 5 {
		t.Fatalf("%d seq_arrive events, want 5", got)
	}
	if got := countKind(tr, obs.KindKVAdmit); got != 5 {
		t.Fatalf("%d kv_admit events, want 5", got)
	}
	if got := countKind(tr, obs.KindSeqComplete); got != 5 {
		t.Fatalf("%d seq_complete events, want 5", got)
	}
	for _, ev := range tr.Events {
		if ev.Kind == obs.KindSeqComplete && (ev.Replica < 0 || ev.Replica >= 2) {
			t.Fatalf("seq_complete on slot %d, want [0,2)", ev.Replica)
		}
	}
	if !tl.Gen {
		t.Fatal("no-knob timeline not marked generative")
	}
	done := 0
	for _, r := range tl.Rows {
		done += r.WinDone
	}
	if done != 5 {
		t.Fatalf("timeline windows observed %d completions, want 5", done)
	}
	var csv bytes.Buffer
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csv.Bytes(), []byte("t_ms,running,queued,kv_free")) {
		t.Fatalf("no-knob timeline CSV has wrong header: %q", csv.Bytes()[:40])
	}
}

// TestGenZeroSequenceTimelineHeaderOnly: an empty stream must produce a
// header-only CSV and an empty trace without panicking, with and without
// a pool.
func TestGenZeroSequenceTimelineHeaderOnly(t *testing.T) {
	empty := workload.GenFromSlice("kv-test", exitsim.KindCNNDailyMail, nil)
	for _, kv := range []bool{true, false} {
		e := kvEngine()
		if kv {
			e.KVBlocks = 10
		}
		tr := obs.NewTracer()
		tl := obs.NewTimeline(50, 0)
		e.Trace, e.Timeline = tr, tl
		st := e.Run(empty, VanillaGen{})
		if st.Seqs != 0 {
			t.Fatalf("kv=%v: empty stream completed %d sequences", kv, st.Seqs)
		}
		if tr.Len() != 0 {
			t.Fatalf("kv=%v: empty stream traced %d events", kv, tr.Len())
		}
		var csv bytes.Buffer
		if err := tl.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if want := "t_ms,running,queued,kv_free,kv_held,kv_util,kv_block_ms,preempts,win_done,win_p99_ms,win_goodput_qps\n"; csv.String() != want {
			t.Fatalf("kv=%v: zero-sequence CSV = %q, want header only", kv, csv.String())
		}
	}
}

// TestGenEmptyTraceNamesQueueTrack: the engine declares its trace
// generative when it attaches the tracer, so a run that emits no event
// still renders the generative track layout: the Chrome trace's
// cluster-level track is the admission queue, not a dispatcher.
func TestGenEmptyTraceNamesQueueTrack(t *testing.T) {
	e := kvEngine()
	tr := obs.NewTracer()
	e.Trace = tr
	e.Run(workload.GenFromSlice("kv-test", exitsim.KindCNNDailyMail, nil), VanillaGen{})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string
			Tid  int
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Tid == 0 {
			if name := ev.Args["name"]; name != "queue" {
				t.Fatalf("track 0 is named %v, want queue", name)
			}
			return
		}
	}
	t.Fatalf("no name for track 0 in %s", buf.String())
}
