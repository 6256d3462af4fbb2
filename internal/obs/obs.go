// Package obs is the observability substrate of the simulators: a
// structured request-lifecycle trace and a time-series telemetry
// sampler, both on the engine's virtual clock. Every study that needs
// to see *when* things happened — queue depths through an outage, the
// race between a hedge and its straggler, the lag between a burst and
// the scale-up it forces — records through this package instead of
// growing bespoke logging.
//
// Two contracts are load-bearing:
//
//   - Zero cost when off. A nil *Tracer / *Timeline compiles to one
//     pointer check on the serving hot path; the AllocsPerRun budgets in
//     internal/serving and internal/genserve pin untraced runs to
//     setup-only allocations, and BenchmarkObsOverhead times what
//     tracing adds.
//   - Determinism. Events are emitted single-threaded in simulation
//     order and encoded with byte-stable formatting, so trace output is
//     byte-identical at any sweep worker count — the same invariant the
//     sweep CSVs already pin.
//
// Sinks: JSONL (one event per line, streamable into anything) and the
// Chrome trace-event format (load the file at ui.perfetto.dev — one
// track per replica, plus a dispatcher track with outage spans).
//
// Each recorder comes in two forms. A buffered Tracer or Timeline
// (NewTracer, NewTimeline) keeps every event or row, so its memory is
// O(run length). A streaming one (NewTracerTo, NewTimelineTo) encodes
// each event or row as it is emitted into one pooled 64 KiB buffer per
// destination, which it writes out in 64 KiB chunks, and keeps nothing
// else, so a traced run holds the same bounded memory as an untraced
// one. Every sink streams, the Chrome one included: a buffered form's
// writers (WriteJSONL, WriteChrome, WriteCSV) replay its events or rows
// through the same encoders, so both forms write identical bytes.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Kind names one lifecycle event type. Request-scoped kinds carry a
// request ID; replica-scoped kinds carry a replica index; cluster-scoped
// kinds (scale/outage transitions) carry neither.
type Kind string

// Lifecycle event kinds.
const (
	// KindArrive marks a request entering the system at its arrival time.
	KindArrive Kind = "arrive"
	// KindDispatch marks the dispatcher routing a request (or a retried /
	// hedged copy) to a replica.
	KindDispatch Kind = "dispatch"
	// KindEnqueue marks a copy joining a replica's queue; Val is the
	// queue depth after the append.
	KindEnqueue Kind = "enqueue"
	// KindServeStart marks a batch starting execution on a replica;
	// Batch is the batch size and DurMS the batch execution time.
	KindServeStart Kind = "serve_start"
	// KindComplete marks a request's response release; LatMS is the
	// response latency and TMS the release instant (arrival + latency).
	KindComplete Kind = "complete"
	// KindDrop marks a request dropped by policy: a Clockwork SLO drop
	// or a TF-Serving queue overflow with no retry budget left.
	KindDrop Kind = "drop"

	// Fault-path kinds.

	// KindRequeue marks a copy pulled off a crashed (or mid-flight dead)
	// replica and handed back to the dispatcher.
	KindRequeue Kind = "requeue"
	// KindRetry marks a bounded re-dispatch after a loss timeout or a
	// queue-overflow bounce.
	KindRetry Kind = "retry"
	// KindHedge marks the hedge deadline firing: a duplicate copy is
	// dispatched to a different replica.
	KindHedge Kind = "hedge"
	// KindPark marks an arrival held at the dispatcher because zero
	// replicas were live; it re-dispatches when capacity returns.
	KindPark Kind = "park"
	// KindLost marks a request resolved as lost: every copy vanished in
	// transit and the retry budget is exhausted.
	KindLost Kind = "lost"
	// KindTimeout marks a loss-detection timeout firing for a copy that
	// never arrived.
	KindTimeout Kind = "timeout"
	// KindCrash and KindRestart bracket a replica's down window; the
	// restart carries the outage duration in DurMS.
	KindCrash   Kind = "crash"
	KindRestart Kind = "restart"

	// Autoscale / availability kinds.

	// KindScaleUp and KindScaleDown mark committed autoscaler actions;
	// Val is the replica count after the step.
	KindScaleUp   Kind = "scale_up"
	KindScaleDown Kind = "scale_down"
	// KindOutageStart and KindOutageEnd bracket a zero-live-replica
	// window; the end carries the window length in DurMS, and the summed
	// DurMS over all pairs equals ClusterStats.Faults.UnavailMS.
	KindOutageStart Kind = "outage_start"
	KindOutageEnd   Kind = "outage_end"

	// Generative sequence-lifecycle kinds — the generative engine's
	// analog of the request kinds above. Replica carries the decode-slot
	// index (one Perfetto track per slot); Req is the sequence's request
	// ID.

	// KindSeqArrive marks a sequence reaching the admission queue; Val is
	// the prompt length in tokens.
	KindSeqArrive Kind = "seq_arrive"
	// KindKVAdmit marks a sequence claiming a decode slot; Val is the KV
	// blocks it holds after the admission grant (0 when the pool is
	// unbounded), and DurMS is this admission's queue wait — summed over
	// all kv_admit events it reconciles with Stats.QueueMS × Seqs,
	// re-queues included.
	KindKVAdmit Kind = "kv_admit"
	// KindPrefixHit marks a sequence whose prompt prefix hit the prefix
	// cache (prefill skipped); emitted at arrival, event count reconciles
	// with Stats.PrefixHits.
	KindPrefixHit Kind = "prefix_hit"
	// KindPrefillChunk marks a committed prefill chunk; Val is the chunk
	// size in tokens and DurMS the chunk's duration (the chunk ran over
	// [TMS-DurMS, TMS]). In-flight chunks lost to preemption are never
	// emitted — the trace shows committed work only.
	KindPrefillChunk Kind = "prefill_chunk"
	// KindDecodeFlush marks a committed decode stretch flushing its
	// tokens at a block boundary (or sequence end); Val is the token
	// count committed and DurMS the stretch's duration.
	KindDecodeFlush Kind = "decode_flush"
	// KindPreempt marks a running sequence evicted by the KV pool: Val is
	// the blocks it freed and DurMS its slot residency (the evicted
	// stretch ran over [TMS-DurMS, TMS]). Event count reconciles with
	// Stats.Preemptions.
	KindPreempt Kind = "preempt"
	// KindSeqRequeue marks a preempted sequence re-entering the admission
	// queue at its head; Val is the queue length after the insert.
	KindSeqRequeue Kind = "seq_requeue"
	// KindSeqComplete marks a sequence finishing: DurMS is its final slot
	// residency and LatMS the end-to-end sequence latency (arrival to
	// completion).
	KindSeqComplete Kind = "seq_complete"
)

// Event is one typed lifecycle record on the virtual clock. Zero-valued
// optional fields are omitted from the encodings; Req and Replica use -1
// as their "not applicable" sentinel because 0 is a valid ID and index.
type Event struct {
	// TMS is the event's virtual time in milliseconds.
	TMS float64
	// Kind is the event type.
	Kind Kind
	// Req is the request ID, or -1 for non-request events.
	Req int
	// Replica is the replica index, or -1 for non-replica events.
	Replica int
	// Batch is the batch size (serve_start, complete).
	Batch int
	// Val is a kind-specific count: queue depth after an enqueue,
	// replica count after a scale step, dispatch attempt number.
	Val int
	// DurMS is a kind-specific duration: batch execution time
	// (serve_start), down-window length (restart), outage length
	// (outage_end).
	DurMS float64
	// LatMS is the response latency (complete).
	LatMS float64
}

// At returns an Event at time t with the request/replica sentinels
// cleared; callers fill the fields their kind carries.
func At(tMS float64, kind Kind) Event {
	return Event{TMS: tMS, Kind: kind, Req: -1, Replica: -1}
}

// Tracer records lifecycle events in emission order. It is not
// concurrency-safe — one tracer belongs to one (single-threaded)
// simulation run, exactly like the engine loop it observes. A buffered
// tracer (NewTracer) keeps every event in Events, so its memory is
// O(events); a streaming tracer (NewTracerTo) writes each event as JSONL,
// as Chrome trace-event records or as both when it is emitted and keeps
// none, so its memory is O(1) and a traced run stays inside the same
// bounded heap as an untraced one (the traced mem-smoke guard).
type Tracer struct {
	// Events holds a buffered tracer's events; a streaming tracer
	// leaves it empty.
	Events []Event
	// Gen marks a generative trace, whose tracks are decode slots and
	// the admission queue instead of replicas and the dispatcher. Set by
	// the generative engine when it attaches the tracer, before the
	// first Emit: a Chrome destination names its tracks from it.
	Gen bool

	jsonl  *sink   // the JSONL destination, if any
	chrome *chrome // the Chrome destination, if any
	n      int     // events emitted
}

// NewTracer returns an empty buffered tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewTracerTo returns a streaming tracer: every emitted event is
// written to jsonl as one JSONL line and to chrome as Chrome
// trace-event records, byte-identical to what WriteJSONL and
// WriteChrome would write for a buffered tracer. Either writer may be
// nil, not both. Each destination collects its records in a 64 KiB
// buffer taken from a pool, which goes to its writer in 64 KiB writes;
// call Flush when the run ends, to write the rest and give the buffers
// back.
func NewTracerTo(jsonl, chrome io.Writer) *Tracer {
	if jsonl == nil && chrome == nil {
		panic("obs: NewTracerTo needs a JSONL or a Chrome writer")
	}
	t := &Tracer{}
	if jsonl != nil {
		t.jsonl = &sink{w: jsonl}
	}
	if chrome != nil {
		t.chrome = newChrome(chrome)
	}
	return t
}

// Emit records one event: appended to Events on a buffered tracer,
// encoded into each destination of a streaming one.
func (t *Tracer) Emit(e Event) {
	t.n++
	if t.jsonl == nil && t.chrome == nil {
		t.Events = append(t.Events, e)
		return
	}
	if t.jsonl != nil {
		t.jsonl.event(e)
	}
	if t.chrome != nil {
		t.chrome.event(e, t.Gen)
	}
}

// Len reports the number of events emitted so far.
func (t *Tracer) Len() int { return t.n }

// Flush writes out what a streaming tracer still buffers and returns
// the first write error of its destinations; events after a failed
// write are counted but not written. A JSONL destination goes on after
// a Flush, and a second Flush writes only what came since. A Chrome
// destination ends at its first Flush, which closes the trace-event
// array: later events are not written to it, and a second Flush writes
// nothing more to it. On a buffered tracer Flush does nothing.
func (t *Tracer) Flush() error {
	var err error
	if t.jsonl != nil {
		err = t.jsonl.flush()
	}
	if t.chrome != nil {
		if cerr := t.chrome.close(t.Gen); err == nil {
			err = cerr
		}
	}
	return err
}

// sinkSize is the capacity of a sink's buffer, and so the size of its
// writes.
const sinkSize = 64 << 10

// sinkHighWater is the fill at which a sink writes its buffer out. The
// 1 KiB above it holds any event (under 300 bytes) and a timeline row
// of a hundred-odd replicas, so appending a record does not grow the
// buffer.
const sinkHighWater = sinkSize - 1<<10

// sinkBufs pools the sinks' buffers. A sweep streams many scenarios,
// and each gives its buffers back at Flush for the next to take.
var sinkBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, sinkSize)
	return &b
}}

// sink is the write-through half of a streaming Tracer or Timeline:
// each record is encoded straight into one pooled buffer, the buffer is
// written to w once it passes sinkHighWater and at flush, and nothing
// else is kept. The first write error is sticky: nothing more is
// written, and flush returns it. A write that returns n < len(p) with a
// nil error counts as io.ErrShortWrite. The buffered writers
// (WriteJSONL, WriteChrome, WriteCSV) drain through a sink too, so both
// forms share the encoders and the error handling.
type sink struct {
	w   io.Writer
	err error
	// page holds the records not yet written; it comes from sinkBufs
	// with the first record and goes back at flush.
	page *[]byte

	// The JSONL encoder's memos. In the benchmark's cluster-chaos-traced
	// pass, 32% of events repeat the previous event's t (arrive then
	// dispatch, enqueue then serve_start, the completes of one batch),
	// and batch execution times repeat so often that the dur_ms memo
	// hits 96% of dur_ms values.
	t   floatText
	dur [1 << durSlotBits]floatText
}

// begin returns the buffer the next record is appended to.
func (s *sink) begin() []byte {
	if s.page == nil {
		s.page = sinkBufs.Get().(*[]byte)
	}
	return *s.page
}

// end keeps buf, the buffer begin returned with records appended, and
// writes it out once it passes the high-water mark.
func (s *sink) end(buf []byte) {
	*s.page = buf
	if len(buf) >= sinkHighWater {
		s.write()
	}
}

// write hands the buffered records to w, unless an earlier write
// failed, and empties the buffer.
func (s *sink) write() {
	buf := *s.page
	if s.err == nil && len(buf) > 0 {
		n, err := s.w.Write(buf)
		if err == nil && n < len(buf) {
			err = io.ErrShortWrite
		}
		s.err = err
	}
	*s.page = buf[:0]
}

// flush writes out the buffered records, gives the buffer back to the
// pool and returns the first write error.
func (s *sink) flush() error {
	if s.page != nil {
		s.write()
		sinkBufs.Put(s.page)
		s.page = nil
	}
	return s.err
}

// ftoa renders a float in the shortest exact form — the same byte-stable
// formatting the sweep CSVs use, so trace output never depends on
// printf rounding.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// appendFloat appends ftoa's bytes without building the string.
func appendFloat(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'g', -1, 64) }

// floatText remembers one float's rendering. It is keyed by the
// float's bits, never by ==, so that -0 and 0 keep their own texts.
type floatText struct {
	bits uint64
	n    uint8 // the length of text; 0 while the entry is empty
	// text fits the longest rendering, 24 bytes: -2.2250738585072014e-308.
	text [24]byte
}

// append appends appendFloat's rendering of v, from the memo when it
// holds v's bits, and remembers v otherwise.
func (m *floatText) append(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if m.n > 0 && m.bits == bits {
		return append(buf, m.text[:m.n]...)
	}
	start := len(buf)
	buf = appendFloat(buf, v)
	m.bits, m.n = bits, uint8(copy(m.text[:], buf[start:]))
	return buf
}

// durSlotBits sizes the dur_ms memo, direct-mapped by durSlot: 16 slots
// hit 96% of the benchmark's dur_ms values, and 64 only 98%.
const durSlotBits = 4

// durSlot maps a float's bits to its dur_ms memo slot. Round durations
// have all-zero low mantissa bits, so the slot is the top of a
// multiplicative (Fibonacci) hash, which every bit of the value moves.
func durSlot(bits uint64) uint64 { return bits * 0x9E3779B97F4A7C15 >> (64 - durSlotBits) }

// event encodes one event as a JSONL line: a compact JSON object with a
// fixed key order, omitting inapplicable fields.
func (s *sink) event(e Event) {
	buf := append(s.begin(), `{"t":`...)
	buf = s.t.append(buf, e.TMS)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, e.Kind...)
	buf = append(buf, '"')
	if e.Req >= 0 {
		buf = append(buf, `,"req":`...)
		buf = strconv.AppendInt(buf, int64(e.Req), 10)
	}
	if e.Replica >= 0 {
		buf = append(buf, `,"replica":`...)
		buf = strconv.AppendInt(buf, int64(e.Replica), 10)
	}
	if e.Batch != 0 {
		buf = append(buf, `,"batch":`...)
		buf = strconv.AppendInt(buf, int64(e.Batch), 10)
	}
	if e.Val != 0 {
		buf = append(buf, `,"val":`...)
		buf = strconv.AppendInt(buf, int64(e.Val), 10)
	}
	if e.DurMS != 0 {
		buf = append(buf, `,"dur_ms":`...)
		buf = s.dur[durSlot(math.Float64bits(e.DurMS))].append(buf, e.DurMS)
	}
	if e.LatMS != 0 {
		buf = append(buf, `,"lat_ms":`...)
		buf = appendFloat(buf, e.LatMS)
	}
	s.end(append(buf, "}\n"...))
}

// WriteJSONL writes a buffered trace as JSON Lines in emission order. The
// encoding is byte-stable: fixed key order, shortest-exact floats, no
// map iteration anywhere — two runs of the same simulation produce
// identical bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	s := &sink{w: w}
	for _, e := range t.Events {
		s.event(e)
	}
	return s.flush()
}

// chrome is the Chrome trace-event encoder, backed by a sink like the
// JSONL encoder. Every record lives in one process ("the cluster") with
// one thread per track: track 0 is the dispatcher (the admission queue
// on a generative trace) and track r+1 is replica (decode slot) r. It
// writes each event's records as the event comes and names each track
// just before the first record on it, so it keeps nothing of the events
// but the count of tracks named.
type chrome struct {
	sink
	track  string // the name of tracks past 0: "replica" or "slot"
	tracks int    // tracks named; 0 until the header is written
	closed bool   // the closing "]}" is written
}

func newChrome(w io.Writer) *chrome { return &chrome{sink: sink{w: w}} }

// chromeThread is a track's thread_name record.
const chromeThread = `{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`

// open appends the header and track 0's name, once; gen selects the
// generative track layout.
func (c *chrome) open(buf []byte, gen bool) []byte {
	if c.tracks > 0 {
		return buf
	}
	c.tracks, c.track = 1, "replica"
	track0 := "dispatcher"
	if gen {
		track0, c.track = "queue", "slot"
	}
	return fmt.Appendf(buf, "{\"traceEvents\":[\n"+chromeThread, 0, track0)
}

// event encodes one event as Chrome records, naming its track first if
// no record was on it yet: batches render as duration slices on their
// replica's track, crash/restart and outage_start/outage_end pairs as
// "down"/"outage" spans, and every other event as an instant with its
// fields as args. On a generative trace each committed slot residency
// is an "X" slice named seq(<req>) emitted at its seq_complete/preempt
// (so work lost to preemption never paints the track), prefill chunks
// and decode stretches nest inside it as prefill(<tokens>)/
// decode(<tokens>) slices, and preemptions add an instant marker at the
// eviction instant. Times are microseconds.
func (c *chrome) event(e Event, gen bool) {
	if c.closed {
		return
	}
	buf := c.open(c.begin(), gen)
	tid := 0
	if e.Replica >= 0 {
		tid = e.Replica + 1
		for ; c.tracks <= tid; c.tracks++ {
			c.end(fmt.Appendf(buf, ",\n"+chromeThread, c.tracks, fmt.Sprintf("%s %d", c.track, c.tracks-1)))
			buf = c.begin()
		}
	}
	ts := ftoa(e.TMS * 1000)
	// slice renders the [TMS-DurMS, TMS] span an event commits as an
	// "X" duration slice on its track.
	slice := func(name, args string) []byte {
		return fmt.Appendf(buf, ",\n"+`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d%s}`,
			name, ftoa((e.TMS-e.DurMS)*1000), ftoa(e.DurMS*1000), tid, args)
	}
	switch e.Kind {
	case KindServeStart:
		buf = fmt.Appendf(buf, ",\n"+`{"name":"batch(%d)","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
			e.Batch, ts, ftoa(e.DurMS*1000), tid)
	case KindSeqComplete:
		buf = slice(fmt.Sprintf("seq(%d)", e.Req), `,"args":{"lat_ms":`+ftoa(e.LatMS)+"}")
	case KindPreempt:
		// The evicted residency paints the track, then an instant marks
		// the eviction itself.
		buf = fmt.Appendf(slice(fmt.Sprintf("seq(%d)", e.Req), ""),
			",\n"+`{"name":"preempt","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"req":%d,"blocks":%d}}`, ts, tid, e.Req, e.Val)
	case KindPrefillChunk, KindDecodeFlush:
		name := "prefill"
		if e.Kind == KindDecodeFlush {
			name = "decode"
		}
		buf = slice(fmt.Sprintf("%s(%d)", name, e.Val), fmt.Sprintf(`,"args":{"req":%d}`, e.Req))
	case KindCrash, KindRestart, KindOutageStart, KindOutageEnd:
		name, ph := "down", "B"
		if e.Kind == KindOutageStart || e.Kind == KindOutageEnd {
			name = "outage"
		}
		if e.Kind == KindRestart || e.Kind == KindOutageEnd {
			ph = "E"
		}
		buf = fmt.Appendf(buf, ",\n"+`{"name":%q,"ph":%q,"ts":%s,"pid":0,"tid":%d}`, name, ph, ts, tid)
	default:
		var args []string
		if e.Req >= 0 {
			args = append(args, `"req":`+strconv.Itoa(e.Req))
		}
		if e.Batch != 0 {
			args = append(args, `"batch":`+strconv.Itoa(e.Batch))
		}
		if e.Val != 0 {
			args = append(args, `"val":`+strconv.Itoa(e.Val))
		}
		if e.LatMS != 0 {
			args = append(args, `"lat_ms":`+ftoa(e.LatMS))
		}
		buf = fmt.Appendf(buf, ",\n"+`{"name":%q,"ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{%s}}`,
			string(e.Kind), ts, tid, strings.Join(args, ","))
	}
	c.end(buf)
}

// close ends the trace-event array, the header first if no record was
// written, and flushes; it returns the sink's first write error. It
// writes the closing "]}" once: events and flushes after it write
// nothing more.
func (c *chrome) close(gen bool) error {
	if !c.closed {
		c.end(append(c.open(c.begin(), gen), "\n]}\n"...))
		c.closed = true
	}
	return c.flush()
}

// WriteChrome writes a buffered trace in the Chrome trace-event JSON
// format (viewable at ui.perfetto.dev or chrome://tracing), replaying
// its events through the streaming tracer's encoder: one track per
// replica, or on a generative trace (Gen set) one per decode slot,
// beside a dispatcher (queue) track.
func (t *Tracer) WriteChrome(w io.Writer) error {
	c := newChrome(w)
	for _, e := range t.Events {
		c.event(e, t.Gen)
	}
	return c.close(t.Gen)
}
