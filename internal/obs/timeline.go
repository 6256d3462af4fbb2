package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/metrics"
)

// Gauges is one instantaneous snapshot of simulator state, filled by the
// simulator's snapshot callback at each tick.
type Gauges struct {
	// Replicas is the configured replica count (autoscale target).
	Replicas int
	// Live is the number of replicas currently up (Replicas minus
	// crashed ones).
	Live int
	// Queued is the total number of requests waiting in replica queues.
	Queued int
	// Inflight is the number of requests in batches executing right now.
	Inflight int
	// Parked is the number of arrivals held at the dispatcher because no
	// replica is live.
	Parked int
	// QueueDepths is the per-replica queue depth, indexed by replica.
	// The timeline consumes a snapshot before it takes the next, so a
	// simulator may hand it the same slice every time: a buffered
	// timeline copies the depths into each row it keeps.
	QueueDepths []int

	// Generative gauges, sampled only when Timeline.Gen is set (zero on
	// classification runs). Running/Queued reuse the semantics above.
	//
	// Running is the number of sequences resident in decode slots.
	Running int
	// KVFree / KVHeld are the free and held block counts of the KV pool.
	KVFree int
	// KVHeld is the number of KV blocks currently granted to sequences.
	KVHeld int
	// KVUtil is the instantaneous pool utilization, KVHeld/(KVFree+KVHeld).
	KVUtil float64
	// Preempts is the cumulative preemption count up to this tick.
	Preempts int
	// KVBlockMS is the exact block-milliseconds integral (∫held·dt)
	// accumulated inside this row's window, so the column sums to
	// Stats.KVUtil × KVBlocks × span over the whole run.
	KVBlockMS float64
}

// Row is one emitted timeline sample: the gauges at a tick instant plus
// the rolling-window latency stats accumulated since the previous tick.
type Row struct {
	TMS    float64
	Gauges Gauges
	// WinDone is the number of requests completed in the window.
	WinDone int
	// WinP99MS is the window's p99 latency (0 when the window is empty).
	WinP99MS float64
	// WinGoodputQPS is the window's SLO-compliant completion rate.
	WinGoodputQPS float64
}

// Timeline samples simulator gauges at a fixed virtual-time tick and
// accumulates per-window latency stats, emitting one Row per tick. Like
// Tracer it is single-threaded and belongs to one run, and it comes in
// the same two forms: a buffered timeline (NewTimeline) keeps its rows
// in Rows for WriteCSV, a streaming one (NewTimelineTo) writes each row
// as CSV when it is emitted and keeps none.
//
// It is deliberately NOT an engine process: scheduling tick events on
// the loop would advance the clock past the last real event and perturb
// end-of-run bookkeeping (fault windows clip at loop.Now()). Instead the
// simulator calls CatchUp from the engine's advance hook, which emits
// all tick rows that the clock just stepped over — the clock itself
// never moves for the sampler's sake.
type Timeline struct {
	// TickMS is the sampling period in virtual milliseconds.
	TickMS float64
	// SLOms classifies window completions as goodput; 0 counts all.
	SLOms float64
	// Gen selects the generative CSV column set (KV-pool gauges instead
	// of replica/queue-depth gauges). Set by the generative engine when
	// it attaches the timeline.
	Gen bool

	// Rows holds a buffered timeline's rows; a streaming timeline
	// leaves it empty.
	Rows []Row

	nextTick float64
	winLat   *metrics.Sketch
	winDone  int
	winGood  int

	out    *sink // the streaming destination; nil when buffered
	n      int   // rows streamed into out
	headed bool  // out has its CSV header
}

// DefaultTickMS is the sampling period when none is configured.
const DefaultTickMS = 100

// MaxRows bounds the rows one timeline may write. CatchUp writes a row
// per tick for the whole run, so a tick that is tiny next to the run's
// length writes without end: a 1e-300 ms tick on a 50-request run wrote
// 2 GB of CSV in 20 s. DefaultTickMS over the longest run a scenario may
// ask for (trace.MaxRunSec, 1e7 s) writes 1e8 rows.
const MaxRows = 1e8

// CheckRun returns an error if a timeline sampling every tickMS (0
// means DefaultTickMS) would write more than MaxRows rows over a run
// expected to span runMS of simulated time.
func CheckRun(tickMS, runMS float64) error {
	if tickMS <= 0 {
		tickMS = DefaultTickMS
	}
	if n := runMS / tickMS; !(n <= MaxRows) {
		return fmt.Errorf("obs: a %gms tick writes %.3g timeline rows over the expected %.3gms run, above the %g limit", tickMS, n, runMS, float64(MaxRows))
	}
	return nil
}

// NewTimeline returns an empty timeline sampling every tickMS (0 means
// DefaultTickMS) with the given goodput SLO (0 means count every
// completion as good).
func NewTimeline(tickMS, sloMS float64) *Timeline {
	if tickMS <= 0 {
		tickMS = DefaultTickMS
	}
	return &Timeline{TickMS: tickMS, SLOms: sloMS, winLat: metrics.NewSketch()}
}

// NewTimelineTo returns a streaming timeline with NewTimeline's
// sampling: every emitted row is written to w as one CSV line,
// byte-identical to what WriteCSV would write for a buffered timeline.
// The header is written with the first row, or by Flush for a row-less
// run, so a simulator may still set Gen after construction. Rows collect
// in a 64 KiB buffer taken from a pool, as a streaming Tracer's events
// do; call Flush when the run ends, to write the rest and give the
// buffer back.
func NewTimelineTo(w io.Writer, tickMS, sloMS float64) *Timeline {
	tl := NewTimeline(tickMS, sloMS)
	tl.out = &sink{w: w}
	return tl
}

// Len reports the number of rows emitted so far.
func (tl *Timeline) Len() int {
	if tl.out != nil {
		return tl.n
	}
	return len(tl.Rows)
}

// Flush writes out what a streaming timeline still buffers — the header
// alone when no row was emitted — and returns its first write error;
// rows after a failed write are counted but not written. On a buffered
// timeline it does nothing.
func (tl *Timeline) Flush() error {
	if tl.out == nil {
		return nil
	}
	if !tl.headed {
		tl.out.end(tl.head(tl.out.begin()))
	}
	return tl.out.flush()
}

// emit records one row: appended to Rows on a buffered timeline,
// encoded into the writer on a streaming one.
func (tl *Timeline) emit(r Row) {
	if tl.out == nil {
		r.Gauges.QueueDepths = slices.Clone(r.Gauges.QueueDepths)
		tl.Rows = append(tl.Rows, r)
		return
	}
	tl.n++
	tl.out.end(tl.appendRow(tl.head(tl.out.begin()), r))
}

// head appends the CSV header the first time a streaming timeline
// writes, and nothing after that.
func (tl *Timeline) head(buf []byte) []byte {
	if tl.headed {
		return buf
	}
	tl.headed = true
	return append(buf, tl.header()...)
}

// Observe records one completed request into the current window.
func (tl *Timeline) Observe(latMS float64, sloMiss bool) {
	tl.winLat.Add(latMS)
	tl.winDone++
	if tl.SLOms <= 0 || !sloMiss {
		tl.winGood++
	}
}

// CatchUp emits a Row for every pending tick instant <= nowMS, calling
// snap for the gauges at each. snap receives the tick instant being
// sampled so gauges that integrate over the window (KVBlockMS) can be
// exact; snapshots that only read instantaneous state ignore it. The
// first call emits the tick-0 row. The window stats land on the first
// row of a batch and reset after it: when the clock jumps several ticks
// at once the intermediate rows are (correctly) empty-window rows, since
// no completions happened inside them.
func (tl *Timeline) CatchUp(nowMS float64, snap func(tMS float64) Gauges) {
	for tl.nextTick <= nowMS {
		g := snap(tl.nextTick)
		row := Row{TMS: tl.nextTick, Gauges: g, WinDone: tl.winDone}
		if tl.winDone > 0 {
			row.WinP99MS = tl.winLat.Percentile(99)
			row.WinGoodputQPS = float64(tl.winGood) / tl.TickMS * 1000
		}
		tl.emit(row)
		tl.winDone, tl.winGood = 0, 0
		tl.winLat.Reset()
		tl.nextTick += tl.TickMS
	}
}

// Finish flushes the sampler at the end of a run: pending full ticks
// emit via CatchUp, then any completions recorded after the last tick
// emit as one final partial-window row stamped at nowMS, so the
// timeline's summed WinDone always equals the run's delivered count.
func (tl *Timeline) Finish(nowMS float64, snap func(tMS float64) Gauges) {
	tl.CatchUp(nowMS, snap)
	if tl.winDone == 0 {
		return
	}
	row := Row{TMS: nowMS, Gauges: snap(nowMS), WinDone: tl.winDone, WinP99MS: tl.winLat.Percentile(99)}
	if span := nowMS - (tl.nextTick - tl.TickMS); span > 0 {
		row.WinGoodputQPS = float64(tl.winGood) / span * 1000
	}
	tl.emit(row)
	tl.winDone, tl.winGood = 0, 0
	tl.winLat.Reset()
}

// csvHeader is the fixed column set of WriteCSV.
const csvHeader = "t_ms,replicas,live,queued,inflight,parked,win_done,win_p99_ms,win_goodput_qps,queue_depths\n"

// genCSVHeader is the generative column set, selected by Timeline.Gen.
const genCSVHeader = "t_ms,running,queued,kv_free,kv_held,kv_util,kv_block_ms,preempts,win_done,win_p99_ms,win_goodput_qps\n"

// header returns the CSV header of the timeline's column set.
func (tl *Timeline) header() string {
	if tl.Gen {
		return genCSVHeader
	}
	return csvHeader
}

// appendRow encodes one row, newline included, in the timeline's
// column set.
func (tl *Timeline) appendRow(buf []byte, r Row) []byte {
	if tl.Gen {
		return appendGenRow(buf, r)
	}
	return appendClassRow(buf, r)
}

// WriteCSV writes a buffered timeline with a fixed header. Per-replica
// queue depths are semicolon-joined in the final column so the row count
// stays stable when autoscaling changes the replica count mid-run.
// Generative timelines (Gen set) swap the replica gauges for the KV-pool
// column set. Floats use the shortest exact representation; output is
// byte-stable.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	s := &sink{w: w}
	s.end(append(s.begin(), tl.header()...))
	for _, r := range tl.Rows {
		s.end(tl.appendRow(s.begin(), r))
	}
	return s.flush()
}

// appendClassRow encodes one row in the csvHeader column set.
func appendClassRow(buf []byte, r Row) []byte {
	buf = appendFloat(buf, r.TMS)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Replicas), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Live), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Queued), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Inflight), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Parked), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.WinDone), 10)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.WinP99MS)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.WinGoodputQPS)
	buf = append(buf, ',')
	for i, d := range r.Gauges.QueueDepths {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	return append(buf, '\n')
}

// appendGenRow encodes one row in the genCSVHeader column set.
func appendGenRow(buf []byte, r Row) []byte {
	buf = appendFloat(buf, r.TMS)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Running), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Queued), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.KVFree), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.KVHeld), 10)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.Gauges.KVUtil)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.Gauges.KVBlockMS)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Gauges.Preempts), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.WinDone), 10)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.WinP99MS)
	buf = append(buf, ',')
	buf = appendFloat(buf, r.WinGoodputQPS)
	return append(buf, '\n')
}
