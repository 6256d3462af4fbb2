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
	st := NewTracerTo(&streamed, nil)
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

// ev builds an event with every field given, -1 for no request or
// replica.
func ev(tMS float64, k Kind, req, replica, batch, val int, durMS, latMS float64) Event {
	return Event{TMS: tMS, Kind: k, Req: req, Replica: replica, Batch: batch, Val: val, DurMS: durMS, LatMS: latMS}
}

// chromeCases are small traces of both layouts with the exact Chrome
// bytes they encode to: every record form, tracks first reached out of
// order (replica 2 before 0 and 1, replica 4 with no record on 3, slot 1
// before slot 0), and each track's name just before its first record.
var chromeCases = []struct {
	name string
	gen  bool
	evs  []Event
	want string
}{
	{"cluster", false, []Event{
		ev(0.5, KindArrive, 7, -1, 0, 0, 0, 0),
		ev(0.5, KindDispatch, 7, 2, 0, 1, 0, 0),
		ev(0.5, KindEnqueue, 7, 2, 0, 1, 0, 0),
		ev(0.5, KindServeStart, -1, 2, 4, 0, 6.25, 0),
		ev(6.75, KindComplete, 7, 2, 4, 0, 0, 6.25),
		ev(8, KindCrash, -1, 0, 0, 0, 0, 0),
		ev(9, KindOutageStart, -1, -1, 0, 0, 0, 0),
		ev(10, KindOutageEnd, -1, -1, 0, 0, 1, 0),
		ev(12, KindRestart, -1, 0, 0, 0, 4, 0),
		ev(13, KindScaleUp, -1, -1, 0, 3, 0, 0),
		ev(14, KindDrop, 8, 4, 0, 0, 0, 0),
	}, `{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"dispatcher"}},
{"name":"arrive","ph":"i","s":"t","ts":500,"pid":0,"tid":0,"args":{"req":7}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"replica 0"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"replica 1"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"replica 2"}},
{"name":"dispatch","ph":"i","s":"t","ts":500,"pid":0,"tid":3,"args":{"req":7,"val":1}},
{"name":"enqueue","ph":"i","s":"t","ts":500,"pid":0,"tid":3,"args":{"req":7,"val":1}},
{"name":"batch(4)","ph":"X","ts":500,"dur":6250,"pid":0,"tid":3},
{"name":"complete","ph":"i","s":"t","ts":6750,"pid":0,"tid":3,"args":{"req":7,"batch":4,"lat_ms":6.25}},
{"name":"down","ph":"B","ts":8000,"pid":0,"tid":1},
{"name":"outage","ph":"B","ts":9000,"pid":0,"tid":0},
{"name":"outage","ph":"E","ts":10000,"pid":0,"tid":0},
{"name":"down","ph":"E","ts":12000,"pid":0,"tid":1},
{"name":"scale_up","ph":"i","s":"t","ts":13000,"pid":0,"tid":0,"args":{"val":3}},
{"ph":"M","pid":0,"tid":4,"name":"thread_name","args":{"name":"replica 3"}},
{"ph":"M","pid":0,"tid":5,"name":"thread_name","args":{"name":"replica 4"}},
{"name":"drop","ph":"i","s":"t","ts":14000,"pid":0,"tid":5,"args":{"req":8}}
]}
`},
	{"gen", true, []Event{
		ev(0, KindSeqArrive, 3, -1, 0, 64, 0, 0),
		ev(1, KindKVAdmit, 3, 1, 0, 4, 1, 0),
		ev(40, KindPrefillChunk, 3, 1, 0, 32, 30, 0),
		ev(55, KindDecodeFlush, 3, 1, 0, 16, 15, 0),
		ev(70, KindPreempt, 3, 1, 0, 5, 60, 0),
		ev(71, KindSeqRequeue, 3, -1, 0, 1, 0, 0),
		ev(200, KindSeqComplete, 3, 0, 0, 0, 120, 200),
	}, `{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"queue"}},
{"name":"seq_arrive","ph":"i","s":"t","ts":0,"pid":0,"tid":0,"args":{"req":3,"val":64}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"slot 0"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"slot 1"}},
{"name":"kv_admit","ph":"i","s":"t","ts":1000,"pid":0,"tid":2,"args":{"req":3,"val":4}},
{"name":"prefill(32)","ph":"X","ts":10000,"dur":30000,"pid":0,"tid":2,"args":{"req":3}},
{"name":"decode(16)","ph":"X","ts":40000,"dur":15000,"pid":0,"tid":2,"args":{"req":3}},
{"name":"seq(3)","ph":"X","ts":10000,"dur":60000,"pid":0,"tid":2},
{"name":"preempt","ph":"i","s":"t","ts":70000,"pid":0,"tid":2,"args":{"req":3,"blocks":5}},
{"name":"seq_requeue","ph":"i","s":"t","ts":71000,"pid":0,"tid":0,"args":{"req":3,"val":1}},
{"name":"seq(3)","ph":"X","ts":80000,"dur":120000,"pid":0,"tid":1,"args":{"lat_ms":200}}
]}
`},
	{"empty", false, nil, "{\"traceEvents\":[\n" + `{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"dispatcher"}}` + "\n]}\n"},
	{"empty-gen", true, nil, "{\"traceEvents\":[\n" + `{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"queue"}}` + "\n]}\n"},
}

// TestStreamingChromeMatchesWriteChrome: for both track layouts
// WriteChrome and a streaming tracer, with a JSONL destination beside
// the Chrome one or without, write the same pinned bytes; the streaming
// tracer keeps no event, and its JSONL equals WriteJSONL's.
func TestStreamingChromeMatchesWriteChrome(t *testing.T) {
	for _, tc := range chromeCases {
		buffered := NewTracer()
		var jsonl, chrome, alone bytes.Buffer
		both, only := NewTracerTo(&jsonl, &chrome), NewTracerTo(nil, &alone)
		buffered.Gen, both.Gen, only.Gen = tc.gen, tc.gen, tc.gen
		for _, e := range tc.evs {
			buffered.Emit(e)
			both.Emit(e)
			only.Emit(e)
		}
		for _, tr := range []*Tracer{both, only} {
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		var written, wantJSONL bytes.Buffer
		if err := buffered.WriteChrome(&written); err != nil {
			t.Fatal(err)
		}
		if err := buffered.WriteJSONL(&wantJSONL); err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			name string
			b    []byte
		}{{"WriteChrome", written.Bytes()}, {"streamed beside JSONL", chrome.Bytes()}, {"streamed alone", alone.Bytes()}} {
			if string(got.b) != tc.want {
				t.Errorf("%s: %s Chrome trace:\n got %s\nwant %s", tc.name, got.name, got.b, tc.want)
			}
		}
		if !bytes.Equal(jsonl.Bytes(), wantJSONL.Bytes()) {
			t.Errorf("%s: the JSONL streamed beside Chrome differs from WriteJSONL:\n got %s\nwant %s", tc.name, jsonl.Bytes(), wantJSONL.Bytes())
		}
		if both.Len() != len(tc.evs) || only.Len() != len(tc.evs) || len(both.Events)+len(only.Events) != 0 {
			t.Errorf("%s: streaming tracers count %d and %d events and keep %d; want %d counted and none kept",
				tc.name, both.Len(), only.Len(), len(both.Events)+len(only.Events), len(tc.evs))
		}
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

// shortWriter accepts one byte less than each write offers and reports
// no error, which a writer must not do.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return max(len(p)-1, 0), nil }

// failOnce fails its first write and accepts every later one, counting
// the bytes it accepts.
type failOnce struct {
	failed   bool
	accepted int
}

func (f *failOnce) Write(p []byte) (int, error) {
	if !f.failed {
		f.failed = true
		return 0, errFull
	}
	f.accepted += len(p)
	return len(p), nil
}

// writeSizes records the length of each write it is handed.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestStreamingSinksReportFirstWriteError: a writer that fails after k
// bytes makes Flush return its error, whether the failure comes while
// the sink's buffer drains mid-run, exactly at the boundary between two
// of its writes, or at the final flush; events and rows after the
// failure are still counted but not written. A short write with no
// error reports io.ErrShortWrite, as bufio.Writer does. Both of a
// tracer's destinations, JSONL and Chrome, fail this way.
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
	long := 400 * len(evs) // far above the sink's 64 KiB buffer
	var sizes writeSizes
	probe := NewTracerTo(&sizes, nil)
	for i := 0; i < long; i++ {
		probe.Emit(evs[i%len(evs)])
	}
	if err := probe.Flush(); err != nil || len(sizes) < 3 {
		t.Fatalf("a %d-event stream made %d writes (err %v), want several", long, len(sizes), err)
	}
	first := sizes[0] // the failure lands at the end of the first write
	for _, k := range []int{0, 1, 100, want.Len() - 1, first - 1, first, first + 1} {
		for _, n := range []int{len(evs), long} {
			tr := NewTracerTo(&failAfter{k: k}, nil)
			for i := 0; i < n; i++ {
				tr.Emit(evs[i%len(evs)])
			}
			var wantErr error
			if k < n/len(evs)*want.Len() {
				wantErr = errFull
			}
			if err := tr.Flush(); !errors.Is(err, wantErr) {
				t.Fatalf("k=%d n=%d: tracer Flush = %v, want %v", k, n, err, wantErr)
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
	tr := NewTracerTo(&failAfter{k: want.Len()}, nil)
	for _, e := range evs {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush into a writer with exactly enough room = %v", err)
	}
	// After a failed write the sink writes nothing more, even to a
	// writer that would accept it.
	once := &failOnce{}
	tr = NewTracerTo(once, nil)
	for i := 0; i < long; i++ {
		tr.Emit(evs[i%len(evs)])
	}
	if err := tr.Flush(); !errors.Is(err, errFull) || once.accepted != 0 {
		t.Fatalf("after a failed first write: Flush = %v and %d bytes written, want %v and none", err, once.accepted, errFull)
	}
	// A short write fails the sink, and the error stays.
	tr = NewTracerTo(shortWriter{}, nil)
	tr.Emit(evs[0])
	for i := 0; i < 2; i++ {
		if err := tr.Flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("Flush %d after a short write = %v, want %v", i+1, err, io.ErrShortWrite)
		}
	}
	tl := NewTimelineTo(shortWriter{}, 1, 0)
	if err := tl.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("timeline Flush after a short write = %v, want %v", err, io.ErrShortWrite)
	}

	// A Chrome destination fails the same way, and Flush returns the
	// first error of either destination, again at a second Flush.
	var chromeWant bytes.Buffer
	if err := ref.WriteChrome(&chromeWant); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 100, chromeWant.Len() - 1, first - 1, first, first + 1} {
		for _, n := range []int{len(evs), long} {
			for _, jsonlFails := range []bool{false, true} {
				var jsonl, chrome io.Writer = io.Discard, &failAfter{k: k}
				if jsonlFails {
					jsonl, chrome = &failAfter{k: k}, io.Discard
				}
				tr := NewTracerTo(jsonl, chrome)
				for i := 0; i < n; i++ {
					tr.Emit(evs[i%len(evs)])
				}
				var wantErr error
				if jsonlFails && k < n/len(evs)*want.Len() || !jsonlFails && k < n/len(evs)*chromeWant.Len() {
					wantErr = errFull
				}
				for i := 0; i < 2; i++ {
					if err := tr.Flush(); !errors.Is(err, wantErr) {
						t.Fatalf("k=%d n=%d jsonlFails=%v: Flush %d = %v, want %v", k, n, jsonlFails, i+1, err, wantErr)
					}
				}
				if tr.Len() != n {
					t.Fatalf("k=%d n=%d: Len = %d after a failed write, want %d", k, n, tr.Len(), n)
				}
			}
		}
	}
	tr = NewTracerTo(nil, &failAfter{k: chromeWant.Len()})
	for _, e := range evs {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Chrome Flush into a writer with exactly enough room = %v", err)
	}
	once = &failOnce{}
	tr = NewTracerTo(nil, once)
	for i := 0; i < long; i++ {
		tr.Emit(evs[i%len(evs)])
	}
	if err := tr.Flush(); !errors.Is(err, errFull) || once.accepted != 0 {
		t.Fatalf("Chrome after a failed first write: Flush = %v and %d bytes written, want %v and none", err, once.accepted, errFull)
	}
	tr = NewTracerTo(nil, shortWriter{})
	for i := 0; i < 2; i++ {
		if err := tr.Flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("Chrome Flush %d after a short write = %v, want %v", i+1, err, io.ErrShortWrite)
		}
	}
}

// TestStreamingSinksWriteAfterFlush: a streaming tracer's JSONL or a
// streaming timeline that goes on after a Flush writes what follows at
// the next Flush, so the output still equals the buffered writer's; a
// Chrome destination writes nothing after its first Flush.
func TestStreamingSinksWriteAfterFlush(t *testing.T) {
	evs := sampleEvents()
	var streamed, want bytes.Buffer
	st, buffered := NewTracerTo(&streamed, nil), NewTracer()
	for i, e := range evs {
		st.Emit(e)
		buffered.Emit(e)
		if i == 0 || i == len(evs)/2 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := buffered.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("events emitted after a Flush:\n got %s\nwant %s", streamed.String(), want.String())
	}

	streamed.Reset()
	want.Reset()
	tl, btl := NewTimelineTo(&streamed, 10, 0), NewTimeline(10, 0)
	g := staticGauges(Gauges{Replicas: 2, Live: 2, QueueDepths: []int{3, 1}})
	for _, now := range []float64{0, 35, 90} {
		tl.CatchUp(now, g)
		btl.CatchUp(now, g)
		if err := tl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := btl.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("rows emitted after a Flush:\n got %s\nwant %s", streamed.String(), want.String())
	}

	// A Chrome destination ends at its first Flush: what follows is not
	// written to it, and a second Flush writes no second "]}", while the
	// JSONL beside it goes on.
	var jsonl, chrome, wantJSONL, wantChrome bytes.Buffer
	st = NewTracerTo(&jsonl, &chrome)
	head, all := NewTracer(), NewTracer()
	for i, e := range evs {
		st.Emit(e)
		all.Emit(e)
		if i <= len(evs)/2 {
			head.Emit(e)
		}
		if i == len(evs)/2 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.WriteChrome(&wantChrome); err != nil {
		t.Fatal(err)
	}
	if err := all.WriteJSONL(&wantJSONL); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome.Bytes(), wantChrome.Bytes()) {
		t.Fatalf("Chrome trace after a Flush (%d bytes) differs from WriteChrome of the events before it (%d bytes)", chrome.Len(), wantChrome.Len())
	}
	if !bytes.Equal(jsonl.Bytes(), wantJSONL.Bytes()) || st.Len() != len(evs) {
		t.Fatalf("the JSONL beside a flushed Chrome trace stopped: %d bytes, want %d; Len %d, want %d", jsonl.Len(), wantJSONL.Len(), st.Len(), len(evs))
	}
}

// TestStreamingEmitZeroAlloc pins the streaming sinks' hot path: Emit
// of any kind with every optional field set, and a streamed timeline
// row of either column set, allocate nothing once the sink is warm.
func TestStreamingEmitZeroAlloc(t *testing.T) {
	tr := NewTracerTo(io.Discard, nil)
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
