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
// O(run length); the Chrome sink needs one, because it makes two passes
// over the events. A streaming one (NewTracerTo, NewTimelineTo) encodes
// each event or row into its writer as it is emitted and keeps nothing,
// so a traced run holds the same bounded memory as an untraced one.
// Both forms share one encoder per format and write identical bytes.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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
// O(events); a streaming tracer (NewTracerTo) writes each event as JSONL
// when it is emitted and keeps none, so its memory is O(1) and a traced
// run stays inside the same bounded heap as an untraced one (the traced
// mem-smoke guard).
type Tracer struct {
	// Events holds a buffered tracer's events; a streaming tracer
	// leaves it empty.
	Events []Event
	// Gen marks a generative trace, whose tracks are decode slots and
	// the admission queue instead of replicas and the dispatcher. Set by
	// the generative engine when it attaches the tracer.
	Gen bool

	out *sink // the streaming destination; nil when buffered
	n   int   // events streamed into out
}

// NewTracer returns an empty buffered tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewTracerTo returns a streaming tracer: every emitted event is
// written to w as one JSONL line, byte-identical to what WriteJSONL
// would write for a buffered tracer. Writes go through a bufio.Writer;
// call Flush when the run ends.
func NewTracerTo(w io.Writer) *Tracer { return &Tracer{out: newSink(w)} }

// Emit records one event: appended to Events on a buffered tracer,
// encoded into the writer on a streaming one.
func (t *Tracer) Emit(e Event) {
	if t.out == nil {
		t.Events = append(t.Events, e)
		return
	}
	t.n++
	t.out.buf = append(appendJSON(t.out.buf[:0], e), '\n')
	t.out.put()
}

// Len reports the number of events emitted so far.
func (t *Tracer) Len() int {
	if t.out != nil {
		return t.n
	}
	return len(t.Events)
}

// Flush writes out what a streaming tracer still buffers and returns
// its first write error; events after a failed write are counted but
// not written. On a buffered tracer it does nothing.
func (t *Tracer) Flush() error {
	if t.out == nil {
		return nil
	}
	return t.out.flush()
}

// sink is the write-through half of a streaming Tracer or Timeline:
// each record is encoded into one reused buffer and handed to a
// bufio.Writer, and nothing is kept. The bufio.Writer makes the first
// write error sticky: it accepts no more data and returns that error
// from every later Write and from Flush. The buffered writers
// (WriteJSONL, WriteCSV) drain through a sink too, so both forms share
// the encoders and the error handling.
type sink struct {
	bw  *bufio.Writer
	buf []byte
}

// newSink wraps w. The encode buffer starts at 512 bytes, more than
// any event encodes to; a timeline row wide enough to need more grows it
// once, and after that encoding never allocates.
func newSink(w io.Writer) *sink {
	return &sink{bw: bufio.NewWriter(w), buf: make([]byte, 0, 512)}
}

// put writes the encoded record in buf. Its error is dropped here
// because the bufio.Writer keeps it for flush to return.
func (s *sink) put() { s.bw.Write(s.buf) }

// flush drains the bufio.Writer and returns the first write error.
func (s *sink) flush() error { return s.bw.Flush() }

// ftoa renders a float in the shortest exact form — the same byte-stable
// formatting the sweep CSVs use, so trace output never depends on
// printf rounding.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// appendFloat appends ftoa's bytes without building the string.
func appendFloat(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'g', -1, 64) }

// appendJSON renders one event as a compact JSON object with a fixed
// key order, omitting inapplicable fields.
func appendJSON(buf []byte, e Event) []byte {
	buf = append(buf, `{"t":`...)
	buf = appendFloat(buf, e.TMS)
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
		buf = appendFloat(buf, e.DurMS)
	}
	if e.LatMS != 0 {
		buf = append(buf, `,"lat_ms":`...)
		buf = appendFloat(buf, e.LatMS)
	}
	buf = append(buf, '}')
	return buf
}

// WriteJSONL writes a buffered trace as JSON Lines in emission order. The
// encoding is byte-stable: fixed key order, shortest-exact floats, no
// map iteration anywhere — two runs of the same simulation produce
// identical bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	s := newSink(w)
	for _, e := range t.Events {
		s.buf = append(appendJSON(s.buf[:0], e), '\n')
		s.put()
	}
	return s.flush()
}

// Chrome trace-event constants: timestamps are microseconds, and every
// event lives in one process ("the cluster") with one thread per track.
const (
	chromeDispatcherTID = 0 // dispatcher / cluster-level track
)

// chromeTID maps an event to its track: replica-scoped events render on
// the replica's thread, everything else on the dispatcher track.
func chromeTID(e Event) int {
	if e.Replica >= 0 {
		return e.Replica + 1
	}
	return chromeDispatcherTID
}

// WriteChrome writes a buffered trace in the Chrome trace-event JSON format
// (viewable at ui.perfetto.dev or chrome://tracing): batches render as
// duration slices on their replica's track, crash/restart and
// outage_start/outage_end pairs render as "down"/"outage" spans, and
// every other event renders as an instant with its fields as args.
//
// Generative traces (Gen set) render one track per decode slot
// instead, beside a queue track in the dispatcher's place: each
// committed slot residency is an "X" slice named seq(<req>) emitted at
// its seq_complete/preempt (so work lost to preemption never paints the
// track), prefill chunks and decode stretches nest inside it as
// prefill(<tokens>)/decode(<tokens>) slices, and preemptions add an
// instant marker at the eviction instant.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	maxReplica := -1
	for _, e := range t.Events {
		if e.Replica > maxReplica {
			maxReplica = e.Replica
		}
	}
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	sep := "\n"
	emit := func(s string) error {
		if _, err := bw.WriteString(sep + s); err != nil {
			return err
		}
		sep = ",\n"
		return nil
	}
	meta := func(tid int, name string) error {
		return emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tid, name))
	}
	track, track0 := "replica", "dispatcher"
	if t.Gen {
		track, track0 = "slot", "queue"
	}
	if err := meta(chromeDispatcherTID, track0); err != nil {
		return err
	}
	for i := 0; i <= maxReplica; i++ {
		if err := meta(i+1, fmt.Sprintf("%s %d", track, i)); err != nil {
			return err
		}
	}
	// slice renders the [TMS-DurMS, TMS] span an event commits as an
	// "X" duration slice on its track.
	slice := func(e Event, name string, extra string) error {
		return emit(fmt.Sprintf(`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d%s}`,
			name, ftoa((e.TMS-e.DurMS)*1000), ftoa(e.DurMS*1000), chromeTID(e), extra))
	}
	for _, e := range t.Events {
		ts := ftoa(e.TMS * 1000) // ms -> us
		tid := chromeTID(e)
		var line string
		switch e.Kind {
		case KindServeStart:
			line = fmt.Sprintf(`{"name":"batch(%d)","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
				e.Batch, ts, ftoa(e.DurMS*1000), tid)
		case KindSeqComplete:
			if err := slice(e, fmt.Sprintf("seq(%d)", e.Req),
				fmt.Sprintf(`,"args":{"lat_ms":%s}`, ftoa(e.LatMS))); err != nil {
				return err
			}
			continue
		case KindPreempt:
			// The evicted residency paints the track, then an instant
			// marks the eviction itself.
			if err := slice(e, fmt.Sprintf("seq(%d)", e.Req), ""); err != nil {
				return err
			}
			line = fmt.Sprintf(`{"name":"preempt","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"req":%d,"blocks":%d}}`,
				ts, tid, e.Req, e.Val)
		case KindPrefillChunk:
			if err := slice(e, fmt.Sprintf("prefill(%d)", e.Val),
				fmt.Sprintf(`,"args":{"req":%d}`, e.Req)); err != nil {
				return err
			}
			continue
		case KindDecodeFlush:
			if err := slice(e, fmt.Sprintf("decode(%d)", e.Val),
				fmt.Sprintf(`,"args":{"req":%d}`, e.Req)); err != nil {
				return err
			}
			continue
		case KindCrash:
			line = fmt.Sprintf(`{"name":"down","ph":"B","ts":%s,"pid":0,"tid":%d}`, ts, tid)
		case KindRestart:
			line = fmt.Sprintf(`{"name":"down","ph":"E","ts":%s,"pid":0,"tid":%d}`, ts, tid)
		case KindOutageStart:
			line = fmt.Sprintf(`{"name":"outage","ph":"B","ts":%s,"pid":0,"tid":%d}`, ts, tid)
		case KindOutageEnd:
			line = fmt.Sprintf(`{"name":"outage","ph":"E","ts":%s,"pid":0,"tid":%d}`, ts, tid)
		default:
			args := make([]byte, 0, 64)
			if e.Req >= 0 {
				args = append(args, `"req":`...)
				args = strconv.AppendInt(args, int64(e.Req), 10)
			}
			if e.Batch != 0 {
				if len(args) > 0 {
					args = append(args, ',')
				}
				args = append(args, `"batch":`...)
				args = strconv.AppendInt(args, int64(e.Batch), 10)
			}
			if e.Val != 0 {
				if len(args) > 0 {
					args = append(args, ',')
				}
				args = append(args, `"val":`...)
				args = strconv.AppendInt(args, int64(e.Val), 10)
			}
			if e.LatMS != 0 {
				if len(args) > 0 {
					args = append(args, ',')
				}
				args = append(args, `"lat_ms":`...)
				args = append(args, ftoa(e.LatMS)...)
			}
			line = fmt.Sprintf(`{"name":%q,"ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{%s}}`,
				string(e.Kind), ts, tid, args)
		}
		if err := emit(line); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
