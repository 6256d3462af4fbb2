package obs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// allKinds lists every event kind, so the streaming tests cover each
// encoding branch the simulators can reach.
var allKinds = []Kind{
	KindArrive, KindDispatch, KindEnqueue, KindServeStart, KindComplete, KindDrop,
	KindRequeue, KindRetry, KindHedge, KindPark, KindLost, KindTimeout, KindCrash, KindRestart,
	KindScaleUp, KindScaleDown, KindOutageStart, KindOutageEnd,
	KindSeqArrive, KindKVAdmit, KindPrefixHit, KindPrefillChunk, KindDecodeFlush,
	KindPreempt, KindSeqRequeue, KindSeqComplete,
}

// fullEvent returns an event of kind k with every optional field set,
// using long float expansions so the encoder writes its widest lines.
func fullEvent(k Kind, i int) Event {
	e := At(float64(i)+0.1234567890123, k)
	e.Req = 1_000_000 + i
	e.Replica = i % 7
	e.Batch = 1 + i%16
	e.Val = 3 + i
	e.DurMS = 12.345678901234567 + float64(i)
	e.LatMS = 98.76543210987654 + float64(i)
	return e
}

// sampleEvents mixes full events with sparse ones (sentinels and zero
// fields omitted), in emission order.
func sampleEvents() []Event {
	var evs []Event
	for i, k := range allKinds {
		evs = append(evs, fullEvent(k, i), At(float64(i)*0.5, k))
	}
	return evs
}

// sampleTimeline drives tl through ticks with completions, multi-tick
// jumps (empty-window rows) and a closing partial-window row.
func sampleTimeline(tl *Timeline) {
	g := Gauges{Replicas: 3, Live: 2, Queued: 7, Inflight: 2, Parked: 1, QueueDepths: []int{4, 0, 3},
		Running: 5, KVFree: 11, KVHeld: 21, KVUtil: 0.65625, Preempts: 2, KVBlockMS: 1234.5678}
	tl.CatchUp(0, staticGauges(g))
	for i := 1; i <= 20; i++ {
		tl.Observe(float64(i)*1.37, i%3 == 0)
		tl.CatchUp(float64(i)*75.3, staticGauges(g))
	}
	tl.Observe(42.42, false)
	tl.Finish(1523.25, staticGauges(g))
}

// TestStreamingTracerMatchesWriteJSONL: a streaming tracer writes the
// exact bytes WriteJSONL writes for the same events, keeps none of
// them, and counts them in Len.
func TestStreamingTracerMatchesWriteJSONL(t *testing.T) {
	buffered := NewTracer()
	var streamed bytes.Buffer
	st := NewTracerTo(&streamed)
	for _, e := range sampleEvents() {
		buffered.Emit(e)
		st.Emit(e)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := buffered.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("streamed JSONL differs from WriteJSONL:\n got %s\nwant %s", streamed.String(), want.String())
	}
	if st.Len() != buffered.Len() || len(st.Events) != 0 {
		t.Fatalf("streaming tracer Len = %d, kept %d events; want Len %d and none kept", st.Len(), len(st.Events), buffered.Len())
	}
	if err := buffered.Flush(); err != nil {
		t.Fatalf("Flush on a buffered tracer = %v, want nil", err)
	}
}

// TestStreamingTimelineMatchesWriteCSV: for both column sets a
// streaming timeline writes the exact bytes WriteCSV writes, keeps no
// rows, and counts them in Len. Gen is set after construction, the way
// the generative engine attaches its timeline.
func TestStreamingTimelineMatchesWriteCSV(t *testing.T) {
	for _, gen := range []bool{false, true} {
		buffered := NewTimeline(75, 40)
		var streamed bytes.Buffer
		st := NewTimelineTo(&streamed, 75, 40)
		buffered.Gen, st.Gen = gen, gen
		sampleTimeline(buffered)
		sampleTimeline(st)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := buffered.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
			t.Fatalf("gen=%v: streamed CSV differs from WriteCSV:\n got %s\nwant %s", gen, streamed.String(), want.String())
		}
		if st.Len() != buffered.Len() || len(st.Rows) != 0 || st.Len() < 20 {
			t.Fatalf("gen=%v: streaming timeline Len = %d, kept %d rows; want Len %d (>= 20) and none kept",
				gen, st.Len(), len(st.Rows), buffered.Len())
		}
	}
}

// TestStreamingTimelineRowlessWritesHeader: a streamed timeline that
// never emits a row still writes WriteCSV's header-only output at
// Flush, for both column sets.
func TestStreamingTimelineRowlessWritesHeader(t *testing.T) {
	for _, gen := range []bool{false, true} {
		var streamed, want bytes.Buffer
		st := NewTimelineTo(&streamed, 100, 0)
		st.Gen = gen
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		buffered := NewTimeline(100, 0)
		buffered.Gen = gen
		if err := buffered.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != want.String() {
			t.Fatalf("gen=%v: row-less streamed CSV = %q, want %q", gen, streamed.String(), want.String())
		}
		// A second Flush writes nothing more.
		if err := st.Flush(); err != nil || streamed.String() != want.String() {
			t.Fatalf("gen=%v: second Flush changed the output to %q (err %v)", gen, streamed.String(), err)
		}
	}
}

var errFull = errors.New("writer full")

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, errFull
}

// TestStreamingSinksReportFirstWriteError: a writer that fails after k
// bytes makes Flush return its error, whether the failure comes while
// the bufio buffer drains mid-run or at the final flush; events and
// rows after the failure are still counted.
func TestStreamingSinksReportFirstWriteError(t *testing.T) {
	evs := sampleEvents()
	var want bytes.Buffer
	ref := NewTracer()
	for _, e := range evs {
		ref.Emit(e)
	}
	if err := ref.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 100, want.Len() - 1} {
		for _, n := range []int{len(evs), 400 * len(evs)} { // below and far above the bufio size
			tr := NewTracerTo(&failAfter{k: k})
			for i := 0; i < n; i++ {
				tr.Emit(evs[i%len(evs)])
			}
			if err := tr.Flush(); !errors.Is(err, errFull) {
				t.Fatalf("k=%d n=%d: tracer Flush = %v, want %v", k, n, err, errFull)
			}
			if tr.Len() != n {
				t.Fatalf("k=%d n=%d: Len = %d after a failed write, want %d", k, n, tr.Len(), n)
			}
		}
		tl := NewTimelineTo(&failAfter{k: k}, 1, 0)
		tl.CatchUp(10000, staticGauges(Gauges{Replicas: 2, QueueDepths: []int{1, 2}}))
		if err := tl.Flush(); !errors.Is(err, errFull) {
			t.Fatalf("k=%d: timeline Flush = %v, want %v", k, err, errFull)
		}
		if tl.Len() != 10001 {
			t.Fatalf("k=%d: timeline Len = %d, want 10001", k, tl.Len())
		}
	}
	// A writer with room for everything reports no error.
	tr := NewTracerTo(&failAfter{k: want.Len()})
	for _, e := range evs {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush into a writer with exactly enough room = %v", err)
	}
}

// TestStreamingEmitZeroAlloc pins the streaming sinks' hot path: Emit
// of any kind with every optional field set, and a streamed timeline
// row of either column set, allocate nothing once the sink is warm.
func TestStreamingEmitZeroAlloc(t *testing.T) {
	tr := NewTracerTo(io.Discard)
	for i, k := range allKinds {
		e := fullEvent(k, i)
		if a := testing.AllocsPerRun(200, func() { tr.Emit(e) }); a != 0 {
			t.Errorf("Emit(%s) allocates %v per call, want 0", k, a)
		}
	}
	for _, gen := range []bool{false, true} {
		tl := NewTimelineTo(io.Discard, 10, 50)
		tl.Gen = gen
		snap := staticGauges(Gauges{Replicas: 4, Live: 3, Queued: 9, Inflight: 2, Parked: 1, QueueDepths: []int{1, 2, 3, 3},
			Running: 6, KVFree: 5, KVHeld: 27, KVUtil: 0.84375, Preempts: 4, KVBlockMS: 270.125})
		now := 0.0
		row := func() {
			tl.Observe(12.5+now/1000, false)
			tl.Observe(80.25, true)
			now += 10
			tl.CatchUp(now, snap)
		}
		if a := testing.AllocsPerRun(200, row); a != 0 {
			t.Errorf("gen=%v: a streamed timeline row allocates %v, want 0", gen, a)
		}
		if tl.Len() < 200 {
			t.Fatalf("gen=%v: only %d rows emitted", gen, tl.Len())
		}
	}
}

// BenchmarkTracerEmit measures one Emit into a buffered tracer (append
// to Events, amortized slice growth included) and into a streaming
// tracer writing JSONL to io.Discard (encode + buffered write). The
// buffered tracer is replaced every 1<<20 events so a long benchmark
// run cannot hold an unbounded trace.
func BenchmarkTracerEmit(b *testing.B) {
	evs := sampleEvents()
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		var tr *Tracer
		for i := 0; i < b.N; i++ {
			if i&(1<<20-1) == 0 {
				tr = NewTracer()
			}
			tr.Emit(evs[i%len(evs)])
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		tr := NewTracerTo(io.Discard)
		for i := 0; i < b.N; i++ {
			tr.Emit(evs[i%len(evs)])
		}
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
	})
}
