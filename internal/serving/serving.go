// Package serving is a discrete-event simulator of GPU model-serving
// platforms (§2.1): requests arrive on a trace, are dispatched to one of
// the platform's replicas, queued, batched under a platform policy, and
// executed on the replica's GPU, whose batch latency comes from the
// model's profile. Two policies are provided:
//
//   - Clockwork-style: work-conserving and SLO-aware — each scheduling
//     decision picks the largest batch whose completion keeps the oldest
//     queued request within its SLO, dropping requests whose deadline is
//     already unreachable [30].
//   - TF-Serving-style: batches form when max_batch_size requests are
//     queued or the oldest has waited batch_timeout, without SLO
//     awareness [51]; late responses are delivered, not dropped.
//
// The handler abstraction lets vanilla models, Apparate, and every
// baseline share the same queueing machinery, so latency differences come
// only from exiting behavior.
//
// One runtime serves every width: RunCluster simulates a pool of
// replicas on one event-driven clock, and Run is the same runtime at one
// replica. It is streaming end to end: requests are pulled from a
// workload.Iter one at a time (plus one request of lookahead for the
// batching policies) and outcomes are folded into aggregate Stats and a
// metrics.Recorder as they happen, so memory is bounded by queue depths
// — independent of trace length.
package serving

import (
	"fmt"

	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// Platform selects a batching policy.
type Platform int

// Supported platforms.
const (
	Clockwork Platform = iota
	TFServe
)

// String returns the platform name.
func (p Platform) String() string {
	switch p {
	case Clockwork:
		return "clockwork"
	case TFServe:
		return "tf-serve"
	}
	return fmt.Sprintf("Platform(%d)", int(p))
}

// Platforms lists the supported platform names in canonical order.
func Platforms() []string { return []string{"clockwork", "tf-serve"} }

// ParsePlatform maps a platform name to its Platform value.
func ParsePlatform(name string) (Platform, error) {
	switch name {
	case "clockwork":
		return Clockwork, nil
	case "tf-serve":
		return TFServe, nil
	}
	return 0, fmt.Errorf("serving: unknown platform %q (want clockwork | tf-serve)", name)
}

// Options configures a serving run.
type Options struct {
	Platform Platform
	// SLOms is the per-request latency objective.
	SLOms float64
	// MaxBatch caps batch sizes (paper experiments use 1–16).
	MaxBatch int
	// BatchTimeoutMS is TF-Serving's batch_timeout_micros analogue.
	BatchTimeoutMS float64
	// QueueCap bounds TF-Serving's pending queue; arrivals beyond it are
	// rejected. This is what makes small max_batch_size trade throughput
	// for latency (Figure 2): bursts overflow instead of queueing
	// indefinitely. Clockwork needs no cap — its SLO-awareness drops
	// hopeless requests instead. Defaults to 4×MaxBatch.
	QueueCap int
	// Metrics selects the latency recorder: exact (every sample kept)
	// or sketch (bounded memory, ~0.5% percentile error).
	Metrics metrics.Mode
	// Observer, when non-nil, receives every per-request Result as it is
	// produced, in emission order. The simulator retains no per-request
	// state itself; tests and trace tools that need raw results hook in
	// here.
	Observer func(Result)
	// Trace, when non-nil, collects the request lifecycle (arrive,
	// dispatch, enqueue, serve_start, complete, drop — plus the fault
	// and autoscale kinds when those are on) as typed events on the
	// virtual clock. Nil costs one pointer check per site on the hot
	// path.
	Trace *obs.Tracer
	// Timeline, when non-nil, samples queue/throughput gauges at its
	// tick. Nil costs one pointer check per site, like Trace.
	Timeline *obs.Timeline
}

func (o Options) withDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.BatchTimeoutMS == 0 {
		o.BatchTimeoutMS = 2
	}
	if o.QueueCap == 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	return o
}

// Handler models one request-serving backend.
type Handler interface {
	// BatchLatency returns the worst-case execution time of a batch of
	// the given size (all layers plus any ramp overheads); the scheduler
	// plans with it.
	BatchLatency(batch int) float64
	// Serve processes one request inside a batch of the given size and
	// reports its outcome; ServeMS is the offset from batch start at
	// which the response is released.
	Serve(s exitsim.Sample, batch int) ramp.Outcome
}

// Result is the fate of one request.
type Result struct {
	ID        int
	ArrivalMS float64
	// LatencyMS is response latency including queuing (undefined when
	// Dropped).
	LatencyMS float64
	// ServeMS is the serving-time component.
	ServeMS   float64
	BatchSize int
	ExitIndex int
	Correct   bool
	Dropped   bool
	SLOMiss   bool
	// Lost marks a request that never reached a replica: every dispatched
	// copy was lost in transit and the retry budget is exhausted. Lost
	// results are also Dropped (they were not served). Fault-injected
	// cluster runs only.
	Lost bool
}

// Stats aggregates a serving run. It holds summaries — counts, rates,
// and a latency recorder — never the per-request results themselves; use
// Options.Observer to tap the raw result stream.
type Stats struct {
	// Lat records delivered-request latencies; nil until the run starts.
	Lat metrics.Recorder

	// Total counts every request (delivered + dropped); Delivered,
	// Drops, SLOMisses, Correct, and Exits break the outcomes down.
	// SLOMisses and Correct count delivered requests only; Exits counts
	// delivered requests that left at a ramp.
	Total     int
	Delivered int
	Drops     int
	SLOMisses int
	Correct   int
	Exits     int
	// Lost counts the subset of Drops that were lost in transit
	// (fault-injected runs only).
	Lost int

	AvgBatch      float64
	DropRate      float64
	SLOMissRate   float64
	ThroughputQPS float64
	// GoodputQPS counts only delivered requests that met their SLO —
	// the availability metric degraded-mode studies rank by.
	GoodputQPS float64
	// Accuracy is the fraction of delivered results matching the
	// original model.
	Accuracy float64

	// FirstArrivalMS and LastDoneMS bound the run's makespan.
	FirstArrivalMS float64
	LastDoneMS     float64

	batches    metrics.Counter
	sawArrival bool
}

// Latencies returns the latency recorder of delivered requests.
func (s *Stats) Latencies() metrics.Recorder { return s.Lat }

// noteArrival tracks the first arrival timestamp for throughput spans.
func (s *Stats) noteArrival(r workload.Request) {
	if !s.sawArrival {
		s.FirstArrivalMS = r.ArrivalMS
		s.sawArrival = true
	}
}

// record folds one result into the aggregates and forwards it to the
// observer.
func (s *Stats) record(r Result, observer func(Result)) {
	s.Total++
	if r.Dropped {
		s.Drops++
		if r.Lost {
			s.Lost++
		}
	} else {
		s.Delivered++
		if r.SLOMiss {
			s.SLOMisses++
		}
		if r.Correct {
			s.Correct++
		}
		if r.ExitIndex >= 0 {
			s.Exits++
		}
		s.Lat.Add(r.LatencyMS)
		if done := r.ArrivalMS + r.LatencyMS; done > s.LastDoneMS {
			s.LastDoneMS = done
		}
	}
	if observer != nil {
		observer(r)
	}
}

// finalize computes the derived rates once the run is complete.
func (s *Stats) finalize() {
	s.AvgBatch = s.batches.Mean()
	if s.Total == 0 {
		return
	}
	s.DropRate = float64(s.Drops) / float64(s.Total)
	if s.Delivered > 0 {
		s.SLOMissRate = float64(s.SLOMisses) / float64(s.Delivered)
		s.Accuracy = float64(s.Correct) / float64(s.Delivered)
	}
	if s.LastDoneMS > 0 {
		if span := s.LastDoneMS - s.FirstArrivalMS; span > 0 {
			s.ThroughputQPS = float64(s.Delivered) / span * 1000
			s.GoodputQPS = float64(s.Delivered-s.SLOMisses) / span * 1000
		}
	}
}

// Run simulates serving the request stream with the handler on one
// replica. It is the cluster runtime at width one: the same event loop,
// batching policies, trace and timeline as RunCluster, with the
// replica's outcomes returned as the run's Stats.
func Run(src *workload.Iter, h Handler, opts Options) *Stats {
	return runCluster(src, func(int) Handler { return h }, ClusterOptions{Options: opts, Replicas: 1}).Merged
}

// clockworkPick drops requests whose SLO is unreachable even at batch
// size 1, then selects the largest batch that keeps the oldest remaining
// request within its SLO. Drops are reported through rec so cluster
// runs under fault injection can arbitrate them (a hedged twin may
// still succeed elsewhere).
func clockworkPick(queue []workload.Request, rec func(Result), now float64, h Handler, opts Options) ([]workload.Request, []workload.Request) {
	// Drop hopeless requests (oldest first).
	for len(queue) > 0 {
		oldest := queue[0]
		if now-oldest.ArrivalMS+h.BatchLatency(1) <= opts.SLOms {
			break
		}
		rec(Result{
			ID: oldest.ID, ArrivalMS: oldest.ArrivalMS, Dropped: true, SLOMiss: true,
			ExitIndex: -1,
		})
		queue = queue[1:]
	}
	if len(queue) == 0 {
		return nil, queue
	}
	b := 1
	maxB := opts.MaxBatch
	if maxB > len(queue) {
		maxB = len(queue)
	}
	oldestWait := now - queue[0].ArrivalMS
	for b < maxB && oldestWait+h.BatchLatency(b+1) <= opts.SLOms {
		b++
	}
	return queue[:b], queue[b:]
}

// tfservePick forms a batch when max_batch_size requests are waiting,
// the oldest has waited out the batch timeout, or no more requests will
// arrive; otherwise it returns a nil batch and the caller waits.
func tfservePick(queue []workload.Request, now float64, more bool, opts Options) ([]workload.Request, []workload.Request) {
	if len(queue) >= opts.MaxBatch {
		return queue[:opts.MaxBatch], queue[opts.MaxBatch:]
	}
	if now >= queue[0].ArrivalMS+opts.BatchTimeoutMS || !more {
		// Flush the whole queue as the batch. The batch aliases the
		// queue's array; callers consume it synchronously before
		// admitting anything, so no copy is needed.
		return queue, queue[len(queue):]
	}
	return nil, queue
}
