package serving

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// Dispatch selects how a cluster front-end spreads requests over
// replicas. Every policy is exact: it reads the replicas' true
// simulated state — queue depth and in-flight work — at the arrival
// instant, not a backlog estimate. Ties always break to the lowest
// replica index, so a burst of simultaneous arrivals against idle
// replicas spreads deterministically as 0, 1, 2, ...
type Dispatch int

// Dispatch policies.
const (
	// RoundRobin cycles the active replicas in arrival order.
	RoundRobin Dispatch = iota
	// LeastLoaded sends each arrival to the replica with the least
	// outstanding estimated work in milliseconds: the remaining
	// execution time of its in-flight batch plus batch-1 service for
	// every queued request. Ties break to the lowest replica index.
	LeastLoaded
	// JoinShortestQueue sends each arrival to the replica with the
	// fewest requests in its system (queued + in-flight) — true JSQ,
	// which only an exact-queue-state simulator can express. Ties break
	// to the lowest replica index.
	JoinShortestQueue
)

// String returns the policy name.
func (d Dispatch) String() string {
	switch d {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case JoinShortestQueue:
		return "join-shortest-queue"
	}
	return fmt.Sprintf("Dispatch(%d)", int(d))
}

// Dispatches lists the supported dispatch policy names in canonical
// order.
func Dispatches() []string {
	return []string{"round-robin", "least-loaded", "join-shortest-queue"}
}

// ParseDispatch maps a policy name to its Dispatch value.
func ParseDispatch(name string) (Dispatch, error) {
	switch name {
	case "round-robin":
		return RoundRobin, nil
	case "least-loaded":
		return LeastLoaded, nil
	case "join-shortest-queue":
		return JoinShortestQueue, nil
	}
	return 0, fmt.Errorf("serving: unknown dispatch policy %q (want round-robin | least-loaded | join-shortest-queue)", name)
}

// ParseSpeeds parses a replica-heterogeneity spec: comma-separated
// positive speed factors cycled over replica indexes ("1,0.5" makes
// every odd replica half as fast). The empty spec returns nil — a
// homogeneous cluster.
func ParseSpeeds(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("serving: hetero speed %q: %v", p, err)
		}
		// !(v > 0) also rejects NaN, which compares false to everything.
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("serving: hetero speed %g must be positive and finite", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// FormatSpeeds renders a speed set in the canonical spec form ParseSpeeds
// accepts.
func FormatSpeeds(speeds []float64) string {
	parts := make([]string, len(speeds))
	for i, v := range speeds {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// ClusterOptions configures a multi-replica run. The paper's platforms
// scale models across replicas decided by the serving platform, and
// Apparate attaches one controller per replica (§3, implementation
// details) — so each replica gets its own Handler and adapts to the
// slice of traffic it sees.
type ClusterOptions struct {
	Options
	Replicas int
	Dispatch Dispatch
	// Speeds, when non-empty, makes the cluster heterogeneous:
	// Speeds[i % len(Speeds)] is replica i's service-speed factor (2.0
	// executes batches twice as fast as the handler's nominal profile).
	// Dispatch policies and autoscale signals see the scaled service
	// times, so least-loaded naturally prefers the faster replicas.
	Speeds []float64
	// Autoscale, when non-nil, replaces the fixed Replicas count with a
	// reactive replica autoscaler consulted online on the event loop:
	// windowed backlog/latency signals computed from the live cluster
	// state drive the scaler, and its decisions take effect for every
	// later arrival. Replicas is ignored; the run starts at
	// Autoscale.Min and never exceeds Autoscale.Max. A zero
	// Autoscale.SLOms inherits Options.SLOms.
	Autoscale *autoscale.Config
	// Faults, when non-nil and non-empty, injects the deterministic
	// fault model into the run: replica crash/restart schedules,
	// dispatcher→replica network delays, and transit loss, all realized
	// as events on the shared engine clock. A crashed replica's queue is
	// requeued to the dispatcher, dispatch excludes down replicas, and
	// ClusterStats.Faults reports the availability outcome.
	Faults *faults.Spec
	// Retry is the dispatcher's retry/hedging policy (zero value =
	// dispatch each request exactly once, pre-fault behavior). It is
	// meaningful with or without Faults: hedging also covers plain slow
	// queues.
	Retry faults.Retry
	// FaultSeed seeds the dedicated fault rng streams (derived through
	// rng.Labeled, so fault draws never perturb the workload's own
	// stream). Typically the scenario seed; only read when Faults or
	// Retry are active.
	FaultSeed uint64
	// ReplicaObserver, when non-nil, receives every per-request Result
	// tagged with the replica that served it (Options.Observer fires
	// too, untagged). Results that never reached a replica (Lost) fire
	// Options.Observer only.
	ReplicaObserver func(replica int, r Result)
}

// ClusterStats aggregates a cluster run.
type ClusterStats struct {
	PerReplica []*Stats
	// Merged aggregates every request's outcome across replicas:
	// summed counts, merged latency recorders, cluster-wide rates.
	Merged *Stats
	// Scale is the realized autoscaling plan (nil for fixed-replica
	// runs).
	Scale *autoscale.Plan
	// Faults reports availability under the injected fault model (nil
	// when the run had no fault mode active).
	Faults *FaultStats
}

// Event classes on the shared engine loop. Arrivals rank before replica
// wakes at the same instant, so every request that has arrived by time
// t is enqueued before any replica forms a batch at t: a batch formed at
// t can take every request that has arrived by t.
const (
	classArrival engine.Class = iota
	classWake
	// classFault ranks crash/restart transitions after same-instant
	// arrivals and wakes, and classTimeout ranks loss-detection timeouts
	// and hedge deadlines last. Both are new classes appended after the
	// pre-fault ones, so the same-instant pop order — and with it every
	// byte-identity pin — of fault-free runs is unchanged.
	classFault
	classTimeout
)

// scaledHandler wraps a Handler with a service-speed factor — the
// heterogeneity hook. BatchLatency and the outcome's release offset
// both scale, so scheduling decisions and response latencies agree.
type scaledHandler struct {
	Handler
	speed float64
}

func (h *scaledHandler) BatchLatency(b int) float64 {
	return h.Handler.BatchLatency(b) / h.speed
}

func (h *scaledHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	out := h.Handler.Serve(s, b)
	out.ServeMS /= h.speed
	return out
}

// replicaSim is one replica on the shared event loop: its own handler,
// queue, GPU-busy horizon, and Stats. It is an event-driven state
// machine: enqueue on arrival, wake at batch completion / hold expiry /
// batch timeout, and at each wake re-evaluate the platform's batching
// policy (clockworkPick or tfservePick, plus Clockwork's catch-up hold).
type replicaSim struct {
	c   *clusterSim
	idx int
	h   Handler
	// estCost is the replica's batch-1 service-time estimate, captured
	// at creation; dispatch backlog estimates and autoscale signals use
	// it.
	estCost float64
	st      *Stats
	opts    Options

	// queue[qhead:] is the live queue. Consumption advances qhead
	// instead of re-slicing the front off, which would strand the
	// array's spare capacity and force one allocation per admitted
	// request; onWake compacts the dead prefix back to the front once
	// it outgrows the live tail, so memory stays O(peak queue) and
	// steady-state admission is allocation-free.
	queue     []workload.Request
	qhead     int
	busyUntil float64
	inflight  int
	// down marks a crashed replica (fault injection only): it receives
	// no dispatches and forms no batches until its restart event. The
	// batch in flight at crash time has already committed — the
	// simulator treats batch execution as atomic — but everything queued
	// is requeued to the dispatcher.
	down bool
	// wakeAt is the earliest pending wake (+Inf when none); used to
	// dedup wake events so a hold or timeout wait schedules one event,
	// not one per evaluation.
	wakeAt float64
	// recordFn caches the record method value so batch picking does not
	// allocate a closure per batch.
	recordFn func(Result)
}

// q returns the live queued requests.
func (r *replicaSim) q() []workload.Request { return r.queue[r.qhead:] }

// qlen is the live queue depth.
func (r *replicaSim) qlen() int { return len(r.queue) - r.qhead }

// record routes one copy's outcome: straight into the replica's Stats,
// or — under fault injection — through the dispatcher's arbiter, which
// discards duplicate copies and decides whether a drop is final.
func (r *replicaSim) record(res Result) {
	if r.c.fm != nil {
		r.c.fm.complete(r, res)
		return
	}
	r.st.record(res, r.opts.Observer)
	r.c.observeResult(res, r.idx)
}

// observeResult traces one finalized result on replica idx's track and
// feeds the timeline's rolling window. Fault-mode callers invoke it only
// for the copy that won (or finally lost) its request, so duplicated
// hedge work never double-counts in the trace either.
func (c *clusterSim) observeResult(res Result, idx int) {
	if c.tr != nil {
		if res.Dropped {
			e := obs.At(c.loop.Now(), obs.KindDrop)
			e.Req = res.ID
			e.Replica = idx
			c.tr.Emit(e)
		} else {
			e := obs.At(res.ArrivalMS+res.LatencyMS, obs.KindComplete)
			e.Req = res.ID
			e.Replica = idx
			e.Batch = res.BatchSize
			e.LatMS = res.LatencyMS
			c.tr.Emit(e)
		}
	}
	if c.tl != nil && !res.Dropped {
		c.tl.Observe(res.LatencyMS, res.SLOMiss)
	}
}

// enqueue admits one dispatched arrival at time now.
func (r *replicaSim) enqueue(req workload.Request, now float64) {
	r.st.noteArrival(req)
	if r.opts.Platform == TFServe && r.qlen() >= r.opts.QueueCap {
		if r.c.fm != nil {
			// Queue overflow under fault mode: the dispatcher may retry
			// the rejected copy on another replica.
			r.c.fm.reject(r, req, now)
			return
		}
		r.record(Result{
			ID: req.ID, ArrivalMS: req.ArrivalMS,
			Dropped: true, SLOMiss: true, ExitIndex: -1,
		})
		return
	}
	// Appends only ever extend the array (no compaction here): a batch
	// being served aliases the region before qhead, and fault-mode
	// completions can re-enter enqueue mid-batch, so moving live
	// entries is only safe at wake time.
	r.queue = append(r.queue, req)
	if tr := r.c.tr; tr != nil {
		e := obs.At(now, obs.KindEnqueue)
		e.Req = req.ID
		e.Replica = r.idx
		e.Val = r.qlen()
		tr.Emit(e)
	}
	if r.busyUntil < now {
		// Idle (no completion wake pending): evaluate at this instant.
		// busyUntil == now means the completion wake at now is still
		// pending and will evaluate after all of now's arrivals.
		r.scheduleWake(now)
	}
}

// scheduleWake requests a policy evaluation at time at, deduplicating
// against an earlier-or-equal pending wake (whose evaluation will
// reschedule whatever is still needed).
func (r *replicaSim) scheduleWake(at float64) {
	if r.wakeAt <= at {
		return
	}
	r.wakeAt = at
	r.c.loop.Schedule(at, classWake, r, 0, 0)
}

// OnEvent dispatches the replica's engine events; replicas are their
// own pre-bound handlers (wakes are their only event kind), so
// scheduling a wake never allocates.
func (r *replicaSim) OnEvent(now float64, _ uint8, _ uint64) { r.onWake(now) }

// onWake re-evaluates the batching policy at time now. Wakes are
// idempotent: a stale wake observing a busy GPU (a batch formed since
// it was scheduled) is ignored, and re-evaluating an unchanged state
// reaches the same decision.
func (r *replicaSim) onWake(now float64) {
	if now >= r.wakeAt {
		r.wakeAt = math.Inf(1)
	}
	if r.down {
		return // crashed: the restart (and later dispatches) resume us
	}
	if r.busyUntil > now {
		return // serving; the completion wake re-evaluates
	}
	r.inflight = 0
	if r.qlen() == 0 {
		if r.qhead > 0 {
			// Empty: rewind to the front so appends reuse the capacity.
			r.queue, r.qhead = r.queue[:0], 0
		}
		return
	}
	// No batch aliases the dead prefix at wake time, so this is the one
	// safe place to reclaim it; compacting only once the prefix
	// outgrows the live tail keeps the copy cost amortized O(1).
	if r.qhead > r.qlen() {
		n := copy(r.queue, r.queue[r.qhead:])
		r.queue, r.qhead = r.queue[:n], 0
	}
	switch r.opts.Platform {
	case Clockwork:
		batch, rest := clockworkPick(r.q(), r.recordFn, now, r.h, r.opts)
		r.qhead = len(r.queue) - len(rest)
		if batch == nil {
			return // everything queued was hopeless and dropped
		}
		// Catch-up batching: when the backlog is real (the oldest
		// request has burned a quarter of its SLO) and the batch took
		// the whole queue, briefly holding the GPU for an imminent
		// arrival forms a larger batch whose amortization drains the
		// backlog (§2.1). The hold is admitted only while serving the
		// grown batch would still meet the oldest request's SLO; the
		// next arrival re-triggers this evaluation, so the batch grows
		// one admission at a time until it is full, the stream ends, or
		// holding for the next arrival would miss that SLO.
		if len(rest) == 0 && len(batch) < r.opts.MaxBatch {
			oldestWait := now - batch[0].ArrivalMS
			if oldestWait > 0.25*r.opts.SLOms {
				if tNext, ok := r.c.nextArrival(); ok {
					hold := tNext - now
					if hold < 0 {
						hold = 0
					}
					if oldestWait+hold+r.h.BatchLatency(len(batch)+1) <= r.opts.SLOms {
						// Hold: put the batch back. It is the tail of the
						// array (rest was empty), so rewinding qhead
						// restores it in place.
						r.qhead = len(r.queue) - len(batch)
						r.scheduleWake(tNext)
						return
					}
				}
			}
		}
		r.serve(batch, now)
	case TFServe:
		tNext, more := r.c.nextArrival()
		batch, rest := tfservePick(r.q(), now, more, r.opts)
		if batch == nil {
			// Waiting: wake at the head's batch-timeout deadline or the
			// next arrival, whichever comes first.
			at := r.q()[0].ArrivalMS + r.opts.BatchTimeoutMS
			if more && tNext < at {
				at = tNext
			}
			if at < now {
				at = now
			}
			r.scheduleWake(at)
			return
		}
		r.qhead = len(r.queue) - len(rest)
		r.serve(batch, now)
	}
}

// serve executes one batch starting at now and schedules the completion
// wake.
func (r *replicaSim) serve(batch []workload.Request, now float64) {
	b := len(batch)
	dur := r.h.BatchLatency(b)
	r.st.batches.Add(float64(b))
	if tr := r.c.tr; tr != nil {
		e := obs.At(now, obs.KindServeStart)
		e.Replica = r.idx
		e.Batch = b
		e.DurMS = dur
		tr.Emit(e)
	}
	for _, req := range batch {
		out := r.h.Serve(req.Sample, b)
		lat := now + out.ServeMS - req.ArrivalMS
		r.record(Result{
			ID:        req.ID,
			ArrivalMS: req.ArrivalMS,
			LatencyMS: lat,
			ServeMS:   out.ServeMS,
			BatchSize: b,
			ExitIndex: out.ExitIndex,
			Correct:   out.Correct,
			SLOMiss:   lat > r.opts.SLOms,
		})
	}
	r.inflight = b
	r.busyUntil = now + dur
	r.scheduleWake(r.busyUntil)
}

// work is the replica's outstanding estimated work at time now in
// milliseconds: the remaining execution of the in-flight batch plus the
// estimated drain time of its queue under maximal batching — the
// least-loaded signal. Using the batched drain time (not queue length ×
// batch-1 cost) matters: batches amortize, so a replica with six queued
// requests that form one batch is far less loaded than six serialized
// requests would suggest.
func (r *replicaSim) work(now float64) float64 {
	w := r.busyUntil - now
	if w < 0 {
		w = 0
	}
	if n := r.qlen(); n > 0 {
		full := n / r.opts.MaxBatch
		if full > 0 {
			w += float64(full) * r.h.BatchLatency(r.opts.MaxBatch)
		}
		if rest := n % r.opts.MaxBatch; rest > 0 {
			w += r.h.BatchLatency(rest)
		}
	}
	return w
}

// jobs is the number of requests in the replica's system at time now
// (queued + in-flight) — the join-shortest-queue signal.
func (r *replicaSim) jobs(now float64) int {
	n := r.qlen()
	if r.busyUntil > now {
		n += r.inflight
	}
	return n
}

// clusterSim is the single-pass cluster runtime: one engine loop, one
// arrival source with a single request of lookahead, all replicas as
// event-driven processes on the shared clock, and the autoscaler
// consulted online at window boundaries.
type clusterSim struct {
	loop *engine.Loop
	opts ClusterOptions
	base Options // default-filled per-replica options (observer unset)

	it   *workload.Iter
	next workload.Request
	has  bool

	mk       func(i int) Handler
	replicas []*replicaSim
	active   int
	rr       int // round-robin arrival counter
	// recCap presizes each replica's exact latency recorder: the run's
	// requests split evenly over the widest the cluster can grow. A
	// replica that serves more grows its recorder by appending.
	recCap int

	// fm is the fault runtime (nil for reliable runs — every fault-mode
	// branch in the hot path is guarded on it, which is what keeps
	// fault-free runs byte-identical to the pre-fault simulator).
	fm *faultMode

	// tr and tl mirror base.Trace/base.Timeline (nil when observability
	// is off — every emission site is guarded on them, the same
	// zero-cost-when-off pattern fm uses).
	tr *obs.Tracer
	tl *obs.Timeline

	// Online autoscaling state (nil scaler for fixed-width runs).
	scaler      *autoscale.Scaler
	plan        *autoscale.Plan
	winEnd      float64
	winLat      *metrics.Sketch
	peakBacklog float64
	busy        float64

	// depthArena backs the QueueDepths slices handed to the timeline:
	// each gauge sample takes the next len(replicas) slots instead of
	// its own allocation. Retained rows keep old blocks alive; the
	// arena only ever appends, so handed-out slices never move.
	depthArena []int
	// snapAt and snapFn let the advance hook pass a pre-advance
	// snapshot instant to the timeline without allocating a closure per
	// clock step.
	snapAt float64
	snapFn func(float64) obs.Gauges
}

// OnEvent dispatches the cluster's engine events; the arrival source is
// its own pre-bound handler (arrivals are its only event kind), so
// scheduling the next arrival never allocates.
func (c *clusterSim) OnEvent(now float64, _ uint8, _ uint64) { c.onArrival(now) }

// Start schedules the first arrival; clusterSim is an engine.Process.
func (c *clusterSim) Start(l *engine.Loop) {
	if c.has {
		l.Schedule(c.next.ArrivalMS, classArrival, c, 0, 0)
	}
}

// nextArrival exposes the source's one-request lookahead: the arrival
// time of the next request not yet dispatched, if any. Replicas consult
// it for Clockwork's catch-up hold and TF-Serving's batch-timeout wait;
// it is the only future the batching policies ever see.
func (c *clusterSim) nextArrival() (float64, bool) {
	return c.next.ArrivalMS, c.has
}

// onArrival dispatches one request: close any elapsed autoscale
// windows (a scaling step at exactly winEnd applies to arrivals >=
// winEnd), pick the target replica from true queue state, enqueue, fold
// the arrival into the window signals, and schedule the next arrival.
func (c *clusterSim) onArrival(now float64) {
	req := c.next
	if r, ok := c.it.Next(); ok {
		c.next = r
	} else {
		c.next, c.has = workload.Request{}, false
	}

	if c.scaler != nil {
		for req.ArrivalMS >= c.winEnd {
			c.closeWindow()
		}
	}

	if c.tr != nil {
		e := obs.At(now, obs.KindArrive)
		e.Req = req.ID
		c.tr.Emit(e)
	}
	if c.fm != nil {
		c.fm.dispatchNew(req, now)
	} else {
		target := c.dispatch(now)
		if c.tr != nil {
			e := obs.At(now, obs.KindDispatch)
			e.Req = req.ID
			e.Replica = target
			c.tr.Emit(e)
		}
		rep := c.replicas[target]
		if c.scaler != nil {
			wait := rep.work(now)
			c.winLat.Add(wait + rep.estCost)
			if wait > c.peakBacklog {
				c.peakBacklog = wait
			}
			c.busy += rep.estCost
		}
		rep.enqueue(req, now)
	}

	if c.has {
		c.loop.Schedule(c.next.ArrivalMS, classArrival, c, 0, 0)
	}
}

// dispatch picks the target among the active replicas at time now.
func (c *clusterSim) dispatch(now float64) int {
	target := 0
	switch c.opts.Dispatch {
	case RoundRobin:
		target = c.rr % c.active
	case LeastLoaded:
		best := c.replicas[0].work(now)
		for j := 1; j < c.active; j++ {
			if w := c.replicas[j].work(now); w < best {
				target, best = j, w
			}
		}
	case JoinShortestQueue:
		best := c.replicas[0].jobs(now)
		for j := 1; j < c.active; j++ {
			if n := c.replicas[j].jobs(now); n < best {
				target, best = j, n
			}
		}
	}
	c.rr++
	return target
}

// pickAmong selects the dispatch target among the given replica
// indexes (non-empty, ascending) under the cluster's dispatch policy;
// ties break to the lowest index exactly like dispatch. The fault
// runtime uses it to dispatch over the live (and not-yet-tried)
// subset; the round-robin counter advances once per call either way.
func (c *clusterSim) pickAmong(eligible []int, now float64) int {
	target := eligible[0]
	switch c.opts.Dispatch {
	case RoundRobin:
		target = eligible[c.rr%len(eligible)]
	case LeastLoaded:
		best := c.replicas[eligible[0]].work(now)
		for _, j := range eligible[1:] {
			if w := c.replicas[j].work(now); w < best {
				target, best = j, w
			}
		}
	case JoinShortestQueue:
		best := c.replicas[eligible[0]].jobs(now)
		for _, j := range eligible[1:] {
			if n := c.replicas[j].jobs(now); n < best {
				target, best = j, n
			}
		}
	}
	c.rr++
	return target
}

// closeWindow summarizes the elapsed signal window, feeds the scaler,
// and applies any replica-count change to subsequent dispatch.
func (c *clusterSim) closeWindow() {
	eff := c.scaler.Config()
	capacity := float64(c.scaler.Replicas())
	outage := false
	if c.fm != nil {
		// Crashed replicas are not capacity: utilization measures demand
		// against the replicas that can actually serve, so an outage
		// reads as load (and can trigger scale-up) instead of reading as
		// spare capacity.
		if live := c.fm.liveActive(); live > 0 {
			capacity = float64(live)
		} else {
			outage = true
		}
	}
	sig := autoscale.Signal{
		Requests:      c.winLat.Len(),
		PeakBacklogMS: c.peakBacklog,
		Utilization:   c.busy / (capacity * eff.WindowMS),
	}
	if outage {
		// Zero live replicas: report saturated capacity so the scaler
		// can never read a total outage as an idle cluster.
		sig.Utilization = 1
	}
	if sig.Requests > 0 {
		sig.P99LatMS = c.winLat.Percentile(99)
	}
	if n, changed := c.scaler.Observe(c.winEnd, sig); changed {
		c.plan.Steps = append(c.plan.Steps, autoscale.Step{AtMS: c.winEnd, Replicas: n})
		c.setActive(n)
	}
	c.winLat.Reset()
	c.peakBacklog, c.busy = 0, 0
	c.winEnd += eff.WindowMS
}

// setActive resizes the dispatchable replica set. Newly activated
// replicas get fresh handlers; retired replicas stop receiving arrivals
// but keep draining their queues on the shared clock, and resume where
// they left off if reactivated.
func (c *clusterSim) setActive(n int) {
	for i := len(c.replicas); i < n; i++ {
		c.addReplica(i)
	}
	c.active = n
	if c.fm != nil {
		c.fm.onActiveChanged(c.loop.Now())
	}
}

// gauges snapshots the cluster's instantaneous state as of time nowMS
// (the last processed instant): per-replica queue depths, in-flight
// batch sizes, live capacity, and parked arrivals.
func (c *clusterSim) gauges(nowMS float64) obs.Gauges {
	n := len(c.replicas)
	// Carve the sample's depth row out of the arena: retained timeline
	// rows keep old blocks alive, so a full block is abandoned to them
	// and replaced rather than grown (growing would move slices already
	// handed out).
	if cap(c.depthArena)-len(c.depthArena) < n {
		size := 1024
		if size < 4*n {
			size = 4 * n
		}
		c.depthArena = make([]int, 0, size)
	}
	start := len(c.depthArena)
	c.depthArena = c.depthArena[:start+n]
	g := obs.Gauges{Replicas: c.active, QueueDepths: c.depthArena[start : start+n : start+n]}
	for i, rep := range c.replicas {
		g.QueueDepths[i] = rep.qlen()
		g.Queued += rep.qlen()
		if rep.busyUntil > nowMS {
			g.Inflight += rep.inflight
		}
		if i < c.active && !rep.down {
			g.Live++
		}
	}
	if c.fm != nil {
		g.Parked = c.fm.parkedCount()
	}
	return g
}

// addReplica creates replica i with its handler (speed-scaled when the
// cluster is heterogeneous) and latency recorder.
func (c *clusterSim) addReplica(i int) {
	h := c.mk(i)
	if len(c.opts.Speeds) > 0 {
		h = &scaledHandler{Handler: h, speed: c.opts.Speeds[i%len(c.opts.Speeds)]}
	}
	ropts := c.base
	if c.opts.ReplicaObserver != nil {
		replica, inner := i, c.base.Observer
		ropts.Observer = func(r Result) {
			if inner != nil {
				inner(r)
			}
			c.opts.ReplicaObserver(replica, r)
		}
	}
	rep := &replicaSim{
		c:       c,
		idx:     i,
		h:       h,
		estCost: h.BatchLatency(1),
		st:      &Stats{Lat: metrics.NewRecorder(c.base.Metrics, c.recCap)},
		opts:    ropts,
		// busyUntil == now means "completion wake pending at now", so a
		// fresh replica must start strictly idle, not at zero.
		busyUntil: math.Inf(-1),
		wakeAt:    math.Inf(1),
	}
	rep.recordFn = rep.record
	c.replicas = append(c.replicas, rep)
	if c.fm != nil {
		c.fm.onReplicaAdded(i)
	}
}

// RunCluster simulates the request stream over a pool of replicas in a
// single pass: every replica is an event-driven process on one shared
// engine clock, dispatch reads true per-replica queue depth and
// in-flight work at each arrival, and (with Autoscale set) the scaler
// is consulted online at window boundaries — no per-replica trace
// replay and no separate planning pass. makeHandler builds the handler
// for replica i exactly once (a fresh Apparate controller per replica,
// or shared-nothing vanilla handlers); with autoscaling, handlers past
// the starting width are created lazily when the cluster first grows
// to them. The run is a pure function of (stream, handlers, options):
// event order is deterministic, so sweeps stay byte-identical at any
// worker count, and memory is bounded by queue depths — independent of
// trace length. Run is this runtime at one replica.
func RunCluster(stream *workload.Stream, makeHandler func(i int) Handler, opts ClusterOptions) *ClusterStats {
	return runCluster(stream.Iter(), makeHandler, opts)
}

// runCluster is RunCluster over an arrival iterator; Run calls it at
// width one.
func runCluster(it *workload.Iter, makeHandler func(i int) Handler, opts ClusterOptions) *ClusterStats {
	if opts.Autoscale == nil && opts.Replicas <= 0 {
		panic("serving: RunCluster needs at least one replica")
	}
	c := &clusterSim{
		loop: engine.New(),
		opts: opts,
		base: opts.Options.withDefaults(),
		mk:   makeHandler,
		it:   it,
	}
	c.tr, c.tl = c.base.Trace, c.base.Timeline
	if r, ok := c.it.Next(); ok {
		c.next, c.has = r, true
	}

	start, width := opts.Replicas, opts.Replicas
	if opts.Autoscale != nil {
		cfg := *opts.Autoscale
		if cfg.SLOms == 0 {
			cfg.SLOms = opts.SLOms
		}
		c.scaler = autoscale.New(cfg)
		eff := c.scaler.Config()
		c.plan = &autoscale.Plan{Start: c.scaler.Replicas()}
		c.winEnd = eff.WindowMS
		c.winLat = metrics.NewSketch()
		start, width = c.scaler.Replicas(), eff.Max
	}
	c.recCap = (it.Len() + width - 1) / width
	if !opts.Faults.Empty() || opts.Retry.Enabled() {
		c.fm = newFaultMode(c, opts.Faults, opts.Retry, opts.FaultSeed)
	}
	if c.scaler != nil && c.tr != nil {
		c.scaler.OnDecision = func(atMS float64, from, to int) {
			kind := obs.KindScaleUp
			if to < from {
				kind = obs.KindScaleDown
			}
			e := obs.At(atMS, kind)
			e.Val = to
			c.tr.Emit(e)
		}
	}
	c.setActive(start)

	c.loop.Add(c)
	if c.fm != nil {
		c.loop.Add(c.fm)
	}
	if c.tl != nil {
		// Sample from the engine's advance hook, never from tick events on
		// the heap: a tick process would extend the clock past the last
		// real event and shift end-of-run bookkeeping (fault windows clip
		// at loop.Now()), breaking timeline-on == timeline-off results.
		// snapFn is bound once; snapAt carries the pre-advance instant so
		// no per-step closure is needed.
		c.snapFn = func(float64) obs.Gauges { return c.gauges(c.snapAt) }
		c.loop.OnAdvance(func(prev, now float64) {
			c.snapAt = prev
			c.tl.CatchUp(now, c.snapFn)
		})
	}
	c.loop.Run()
	if c.tl != nil {
		end := c.loop.Now()
		c.tl.Finish(end, func(float64) obs.Gauges { return c.gauges(end) })
	}

	cs := &ClusterStats{PerReplica: make([]*Stats, len(c.replicas)), Scale: c.plan}
	merged := &Stats{Lat: metrics.NewRecorder(c.base.Metrics, it.Len())}
	var batches metrics.Counter
	for i, rep := range c.replicas {
		rep.st.finalize()
		cs.PerReplica[i] = rep.st
		mergeStats(merged, rep.st)
		// AvgBatch is the mean over replicas of each replica's mean
		// batch size.
		batches.Add(rep.st.AvgBatch)
	}
	if c.fm != nil {
		c.fm.finish(c.loop.Now())
		mergeStats(merged, c.fm.st)
		cs.Faults = c.fm.fs
	}
	merged.finalize()
	merged.AvgBatch = batches.Mean()
	cs.Merged = merged
	return cs
}

// mergeStats folds one replica's aggregates into the cluster totals.
func mergeStats(dst, src *Stats) {
	dst.Total += src.Total
	dst.Delivered += src.Delivered
	dst.Drops += src.Drops
	dst.Lost += src.Lost
	dst.SLOMisses += src.SLOMisses
	dst.Correct += src.Correct
	dst.Exits += src.Exits
	if src.Lat.Len() > 0 {
		dst.Lat.Merge(src.Lat)
	}
	if src.sawArrival && (!dst.sawArrival || src.FirstArrivalMS < dst.FirstArrivalMS) {
		dst.FirstArrivalMS = src.FirstArrivalMS
		dst.sawArrival = true
	}
	if src.LastDoneMS > dst.LastDoneMS {
		dst.LastDoneMS = src.LastDoneMS
	}
}
