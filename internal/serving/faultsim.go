package serving

import (
	"math"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// FaultStats aggregates availability under an injected fault model.
type FaultStats struct {
	// Crashes counts realized crash events (one-shot and churn).
	Crashes int
	// Lost counts requests that never reached any replica: every
	// dispatched copy was lost in transit and the retry budget ran out.
	Lost int
	// Retried counts re-dispatches of all kinds: loss-timeout retries,
	// queue-overflow re-dispatches, and crash requeues.
	Retried int
	// Hedged counts hedge duplicates launched; Wasted counts copy
	// outcomes discarded because another copy won the request first
	// (the cost of hedging without cancellation).
	Hedged int
	Wasted int
	// DowntimeMS is each replica's total down time in milliseconds,
	// indexed like ClusterStats.PerReplica.
	DowntimeMS []float64
	// UnavailMS is the total time the cluster spent with zero live
	// replicas.
	UnavailMS float64
	// Outages records the duration of every per-replica down interval —
	// the availability distribution (percentiles via metrics.Recorder).
	Outages metrics.Recorder
}

// Downtime is the summed per-replica downtime.
func (f *FaultStats) Downtime() float64 {
	total := 0.0
	for _, d := range f.DowntimeMS {
		total += d
	}
	return total
}

// pendSlot is the dispatcher's book entry for one not-yet-resolved
// request: how many copies are outstanding (queued, in transit, or
// lost-but-undetected), how many dispatch attempts it has consumed, and
// which replicas have been tried (failed-replica exclusion). Slots live
// in faultMode.pend, a direct-mapped power-of-two table indexed by
// request ID — request IDs are dense and the outstanding set is a
// sliding window, so id & (len-1) is collision-free at a table a bit
// wider than the window, and the table doubles on the rare collision.
// id == -1 marks a free slot; a recycled slot keeps its tried backing
// array, so steady-state bookkeeping allocates nothing.
type pendSlot struct {
	id       int
	req      workload.Request
	attempts int
	copies   int
	hedged   bool
	tried    []int
}

// faultMode is the dispatcher-side fault runtime: it realizes a
// faults.Spec as events on the cluster's engine clock (crash/restart
// transitions, delayed deliveries, loss-detection timeouts) and owns
// the retry/hedging policy plus the arbitration that keeps duplicate
// copies from double-counting. All randomness comes from rng streams
// labeled off the fault seed — the "faults" streams — so the workload's
// own draws are untouched and a faulty run is exactly as deterministic
// as a reliable one: same spec, same seed, same events, at any sweep
// worker count.
type faultMode struct {
	c     *clusterSim
	spec  *faults.Spec // nil in retry-only mode
	retry faults.Retry

	// net draws transit loss and delay, one copy at a time in dispatch
	// order; churnSeed derives each replica's independent MTBF/MTTR
	// stream.
	net       *rng.Rand
	churnSeed uint64
	timeoutMS float64

	// pend is the direct-mapped outstanding-request table (see
	// pendSlot); npend counts live slots. Slot pointers are stable
	// within one event dispatch — inserts (the only trigger of table
	// growth) happen only when a fresh arrival enters the runtime.
	pend  []pendSlot
	npend int
	// parked holds the IDs of requests that arrived while zero replicas
	// were live; they re-dispatch in FIFO order at the next restart. IDs
	// are never recycled within a run, so an ID whose slot has resolved
	// simply looks up to nil — the staleness check.
	parked   []int
	eligible []int // scratch for pick
	// churnProcs holds one entry per started churn chain; engine events
	// address them by index so the chain carries no closure state.
	churnProcs []churnProc
	// latQ estimates delivered-latency quantiles for the hedge deadline.
	latQ *metrics.Sketch

	// st carries dispatcher-level outcomes: the true first-arrival
	// timestamp and the Lost results, merged into ClusterStats.Merged.
	st *Stats
	fs *FaultStats
	// downAt[i] is the start of replica i's current outage (NaN while
	// up); unavailAt the start of the current zero-live window.
	downAt    []float64
	unavailAt float64
}

func newFaultMode(c *clusterSim, spec *faults.Spec, retry faults.Retry, seed uint64) *faultMode {
	fm := &faultMode{
		c:         c,
		spec:      spec,
		retry:     retry,
		net:       rng.Labeled(seed, "faults.net"),
		churnSeed: rng.Labeled(seed, "faults.churn").Uint64(),
		pend:      newPendTable(64),
		latQ:      metrics.NewSketch(),
		st:        &Stats{Lat: metrics.NewRecorder(c.base.Metrics, 16)},
		fs:        &FaultStats{Outages: metrics.NewRecorder(c.base.Metrics, 16)},
		unavailAt: math.NaN(),
	}
	fm.timeoutMS = c.base.SLOms
	if spec != nil && spec.TimeoutMS > 0 {
		fm.timeoutMS = spec.TimeoutMS
	}
	if fm.timeoutMS <= 0 {
		fm.timeoutMS = 100 // SLO-less options: a fixed detection delay
	}
	return fm
}

// newPendTable returns a free-marked direct-mapped table of the given
// power-of-two size.
func newPendTable(size int) []pendSlot {
	t := make([]pendSlot, size)
	for i := range t {
		t[i].id = -1
	}
	return t
}

// lookup returns the live slot for id, or nil once the request has
// resolved (or was never pending).
func (fm *faultMode) lookup(id int) *pendSlot {
	s := &fm.pend[id&(len(fm.pend)-1)]
	if s.id != id {
		return nil
	}
	return s
}

// insert claims a slot for a fresh arrival, doubling the table when the
// request's home slot is occupied by an older outstanding request.
// Growth preserves the direct-mapped invariant: IDs distinct mod N are
// distinct mod 2N, so live entries never collide after rehashing.
func (fm *faultMode) insert(req workload.Request) *pendSlot {
	for {
		s := &fm.pend[req.ID&(len(fm.pend)-1)]
		if s.id == -1 {
			s.id = req.ID
			s.req = req
			s.attempts, s.copies = 0, 0
			s.hedged = false
			s.tried = s.tried[:0]
			fm.npend++
			return s
		}
		next := newPendTable(2 * len(fm.pend))
		for i := range fm.pend {
			if fm.pend[i].id != -1 {
				next[fm.pend[i].id&(len(next)-1)] = fm.pend[i]
			}
		}
		fm.pend = next
	}
}

// del frees id's slot; a no-op if the request already resolved.
func (fm *faultMode) del(id int) {
	s := &fm.pend[id&(len(fm.pend)-1)]
	if s.id == id {
		s.id = -1
		fm.npend--
	}
}

// parkedCount is the number of arrivals held at the dispatcher.
func (fm *faultMode) parkedCount() int { return len(fm.parked) }

// churnProc is one replica's MTBF/MTTR chain: the engine addresses it
// by index, and the chain's exponential draws come from its own rng
// stream so churn is independent of dispatch order.
type churnProc struct {
	replica int
	ch      faults.Churn
	r       *rng.Rand
}

// Engine-event op codes dispatched to faultMode.OnEvent. opDeliver
// packs its target and request ID into one arg; the others carry a
// replica index, churn-process index, or request ID directly.
const (
	opCrashOnce uint8 = iota
	opRestartOnce
	opChurnCrash
	opChurnRestart
	opHedge
	opLossTimeout
	opDeliver
)

// deliverIDBits is the arg split for opDeliver: the low 40 bits carry
// the request ID (IDs are dense stream positions, far below 2^40) and
// the high bits the target replica.
const deliverIDBits = 40

// OnEvent dispatches the fault runtime's engine events; faultMode is
// its own pre-bound handler, so arming a crash, restart, hedge,
// timeout, or delayed delivery never allocates. Every op but a delivery
// ranks after the replica wakes at its instant, which enqueue reads
// from clusterSim.late.
func (fm *faultMode) OnEvent(now float64, op uint8, arg uint64) {
	fm.c.late = op != opDeliver
	fm.handle(now, op, arg)
	fm.c.late = false
}

// handle runs one fault-runtime event.
func (fm *faultMode) handle(now float64, op uint8, arg uint64) {
	switch op {
	case opCrashOnce:
		fm.crash(int(arg), now)
	case opRestartOnce:
		fm.restart(int(arg), now)
	case opChurnCrash:
		p := &fm.churnProcs[arg]
		if fm.idle() {
			return // drained: stop rescheduling, bounding the run
		}
		fm.crash(p.replica, now)
		fm.c.loop.Schedule(now+p.r.Exp(1/p.ch.DownMS), classFault, fm, opChurnRestart, arg)
	case opChurnRestart:
		p := &fm.churnProcs[arg]
		fm.restart(p.replica, now)
		fm.c.loop.Schedule(now+p.r.Exp(1/p.ch.UpMS), classFault, fm, opChurnCrash, arg)
	case opHedge:
		fm.onHedge(int(arg), now)
	case opLossTimeout:
		fm.onLossTimeout(int(arg), now)
	case opDeliver:
		fm.deliver(int(arg>>deliverIDBits), int(arg&(1<<deliverIDBits-1)), now)
	}
}

// Start schedules the spec's one-shot crash/restart pairs; faultMode is
// an engine.Process. Churn processes start per replica in
// onReplicaAdded (replicas can be created mid-run by the autoscaler).
func (fm *faultMode) Start(l *engine.Loop) {
	if fm.spec == nil {
		return
	}
	for _, cr := range fm.spec.Crashes {
		l.Schedule(cr.AtMS, classFault, fm, opCrashOnce, uint64(cr.Replica))
		l.Schedule(cr.AtMS+cr.DownMS, classFault, fm, opRestartOnce, uint64(cr.Replica))
	}
}

// onReplicaAdded extends the per-replica fault state and attaches any
// churn process covering the new replica.
func (fm *faultMode) onReplicaAdded(i int) {
	fm.downAt = append(fm.downAt, math.NaN())
	fm.fs.DowntimeMS = append(fm.fs.DowntimeMS, 0)
	if fm.spec == nil {
		return
	}
	for _, ch := range fm.spec.Churns {
		if ch.Replica == -1 || ch.Replica == i {
			fm.startChurn(i, ch)
		}
	}
}

// startChurn begins replica i's periodic MTBF/MTTR process: up-times
// and down-times are exponential draws from a per-replica stream
// derived from the churn seed, so the process is independent of
// dispatch order and of every other replica's churn. The chain stops
// rescheduling once the trace is drained and nothing is outstanding,
// bounding the run.
func (fm *faultMode) startChurn(i int, ch faults.Churn) {
	r := rng.New(fm.churnSeed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	fm.churnProcs = append(fm.churnProcs, churnProc{replica: i, ch: ch, r: r})
	idx := uint64(len(fm.churnProcs) - 1)
	fm.c.loop.Schedule(fm.c.loop.Now()+r.Exp(1/ch.UpMS), classFault, fm, opChurnCrash, idx)
}

// idle reports that no future work can appear: the trace is exhausted
// and every request has resolved.
func (fm *faultMode) idle() bool { return !fm.c.has && fm.npend == 0 }

// liveActive counts dispatchable replicas: active and not down.
func (fm *faultMode) liveActive() int {
	n := 0
	for i := 0; i < fm.c.active; i++ {
		if !fm.c.replicas[i].down {
			n++
		}
	}
	return n
}

// crash fail-stops replica i at time now. The batch in flight has
// already committed (batch execution is atomic in the simulator), but
// everything still queued is requeued to the dispatcher and
// re-dispatched immediately — crash requeues are infrastructure, not
// bounded by Retry.Attempts. Crashing an already-down replica, a
// replica the run never materialized, or a drained cluster is a no-op;
// overlapping down windows merge (the earliest restart revives). A
// retired replica can crash too — it is still a machine, its draining
// queue still requeues and its downtime still accrues — but only
// active live capacity moves the unavailability window.
func (fm *faultMode) crash(i int, now float64) {
	if i >= len(fm.c.replicas) || fm.idle() {
		return
	}
	rep := fm.c.replicas[i]
	if rep.down {
		return
	}
	rep.down = true
	fm.fs.Crashes++
	fm.downAt[i] = now
	if tr := fm.c.tr; tr != nil {
		e := obs.At(now, obs.KindCrash)
		e.Replica = i
		tr.Emit(e)
	}
	if fm.liveActive() == 0 && math.IsNaN(fm.unavailAt) {
		fm.openUnavail(now)
	}
	// The crashed replica's live queue requeues; no event can enqueue
	// onto a down replica, so iterating the emptied array is safe.
	q := rep.q()
	rep.queue, rep.qhead = rep.queue[:0], 0
	for _, req := range q {
		entry := fm.lookup(req.ID)
		if entry == nil {
			continue // stale copy of an already-resolved request
		}
		entry.copies--
		fm.fs.Retried++
		fm.send(entry, now, false, obs.KindRequeue)
	}
}

// restart revives replica i (empty-queued, idle). The unavailability
// window closes — and parked requests flush — only if the revival
// actually restored dispatchable capacity (reviving a retired replica
// does not).
func (fm *faultMode) restart(i int, now float64) {
	if i >= len(fm.c.replicas) {
		return
	}
	rep := fm.c.replicas[i]
	if !rep.down {
		return
	}
	rep.down = false
	d := now - fm.downAt[i]
	fm.fs.DowntimeMS[i] += d
	fm.fs.Outages.Add(d)
	fm.downAt[i] = math.NaN()
	if tr := fm.c.tr; tr != nil {
		e := obs.At(now, obs.KindRestart)
		e.Replica = i
		e.DurMS = d
		tr.Emit(e)
	}
	if fm.liveActive() > 0 {
		fm.closeUnavail(now)
		fm.flushParked(now)
	}
}

// openUnavail starts a zero-live-capacity window at time now.
func (fm *faultMode) openUnavail(now float64) {
	fm.unavailAt = now
	if tr := fm.c.tr; tr != nil {
		tr.Emit(obs.At(now, obs.KindOutageStart))
	}
}

// closeUnavail ends an open zero-live-capacity window at time now. The
// traced outage_end carries the window length, so summed pair durations
// reconcile exactly with FaultStats.UnavailMS.
func (fm *faultMode) closeUnavail(now float64) {
	if !math.IsNaN(fm.unavailAt) {
		d := now - fm.unavailAt
		fm.fs.UnavailMS += d
		fm.unavailAt = math.NaN()
		if tr := fm.c.tr; tr != nil {
			e := obs.At(now, obs.KindOutageEnd)
			e.DurMS = d
			tr.Emit(e)
		}
	}
}

// flushParked re-dispatches every request parked during a zero-live
// window, in FIFO order.
func (fm *faultMode) flushParked(now float64) {
	if len(fm.parked) == 0 {
		return
	}
	parked := fm.parked
	fm.parked = nil
	for _, id := range parked {
		entry := fm.lookup(id)
		if entry == nil {
			continue // resolved while parked
		}
		fm.send(entry, now, false, obs.KindDispatch)
	}
}

// onActiveChanged reconciles availability state after the autoscaler
// resizes the active set: capacity is capacity, whether it comes from
// a restart or a scale-up, so a resize that restores live capacity
// ends the unavailability window and flushes parked requests, and a
// scale-down that strands the cluster on down replicas opens one.
func (fm *faultMode) onActiveChanged(now float64) {
	if fm.liveActive() > 0 {
		fm.closeUnavail(now)
		fm.flushParked(now)
	} else if math.IsNaN(fm.unavailAt) && !fm.idle() {
		fm.openUnavail(now)
	}
}

// dispatchNew admits one fresh arrival into the fault runtime.
func (fm *faultMode) dispatchNew(req workload.Request, now float64) {
	fm.st.noteArrival(req)
	entry := fm.insert(req)
	fm.send(entry, now, true, obs.KindDispatch)
}

// send dispatches one copy of the request: pick a live replica
// (preferring untried ones), arm the hedge deadline on the first
// attempt, then put the copy on the wire — where it may be lost or
// delayed. fresh marks the request's very first dispatch, which is the
// only one that folds into the autoscaler's window signals (retries
// are not new demand). kind is the trace label for this dispatch —
// dispatch, requeue, retry, or hedge.
func (fm *faultMode) send(entry *pendSlot, now float64, fresh bool, kind obs.Kind) {
	c := fm.c
	target, ok := fm.pick(now, entry.tried)
	if !ok {
		// Zero live replicas: hold at the dispatcher until a restart or
		// scale-up restores capacity. The autoscale window sees a
		// pessimistic latency sample so an outage registers as load,
		// never as idleness.
		fm.parked = append(fm.parked, entry.id)
		if tr := c.tr; tr != nil {
			e := obs.At(now, obs.KindPark)
			e.Req = entry.req.ID
			tr.Emit(e)
		}
		if c.scaler != nil && fresh {
			c.winLat.Add(2 * c.base.SLOms)
		}
		return
	}
	entry.attempts++
	entry.copies++
	entry.tried = append(entry.tried, target)
	rep := c.replicas[target]
	if tr := c.tr; tr != nil {
		e := obs.At(now, kind)
		e.Req = entry.req.ID
		e.Replica = target
		e.Val = entry.attempts
		tr.Emit(e)
	}
	if c.scaler != nil && fresh {
		c.noteDemand(rep, now)
	}
	// Hedge: at most one duplicate per request, armed on the first
	// dispatch once the latency estimator has enough samples and a
	// second replica exists to host the copy.
	if fm.retry.HedgeQ > 0 && entry.attempts == 1 &&
		fm.latQ.Len() >= fm.retry.HedgeMin && c.active > 1 {
		at := now + fm.latQ.Percentile(fm.retry.HedgeQ)
		c.loop.Schedule(at, classTimeout, fm, opHedge, uint64(entry.id))
	}
	if fm.spec != nil {
		// Transit: loss and delay are per-copy draws from the dedicated
		// network stream, in dispatch order.
		if fm.spec.Loss > 0 && fm.net.Float64() < fm.spec.Loss {
			c.loop.Schedule(now+fm.timeoutMS, classTimeout, fm, opLossTimeout, uint64(entry.id))
			return // the copy never arrives; the timeout notices
		}
		if fm.spec.Delay.Kind != faults.DelayNone {
			if d := fm.spec.Delay.Sample(fm.net); d > 0 {
				c.loop.Schedule(now+d, classArrival, fm, opDeliver,
					uint64(target)<<deliverIDBits|uint64(entry.id))
				return
			}
		}
	}
	rep.enqueue(entry.req, now, false)
}

// pick selects a live active replica under the cluster's dispatch
// policy, preferring replicas not yet tried for this request
// (failed-replica exclusion); when every live replica has been tried
// the exclusion is waived rather than failing the dispatch. ok=false
// means zero live replicas.
func (fm *faultMode) pick(now float64, tried []int) (int, bool) {
	c := fm.c
	fm.eligible = fm.eligible[:0]
	for i := 0; i < c.active; i++ {
		if c.replicas[i].down || slices.Contains(tried, i) {
			continue
		}
		fm.eligible = append(fm.eligible, i)
	}
	if len(fm.eligible) == 0 {
		for i := 0; i < c.active; i++ {
			if !c.replicas[i].down {
				fm.eligible = append(fm.eligible, i)
			}
		}
	}
	if len(fm.eligible) == 0 {
		return 0, false
	}
	return c.pickAmong(fm.eligible, now), true
}

// deliver completes a delayed hop: the copy reaches its replica —
// unless the request already resolved (the copy evaporates) or the
// replica died while the copy was on the wire (requeue).
func (fm *faultMode) deliver(target, id int, now float64) {
	entry := fm.lookup(id)
	if entry == nil {
		return
	}
	rep := fm.c.replicas[target]
	if rep.down {
		entry.copies--
		fm.fs.Retried++
		fm.send(entry, now, false, obs.KindRequeue)
		return
	}
	rep.enqueue(entry.req, now, true)
}

// onLossTimeout fires when a lost copy's detection timeout expires:
// retry if the attempt budget allows, otherwise the request is lost
// for good once no other copy is still racing.
func (fm *faultMode) onLossTimeout(id int, now float64) {
	entry := fm.lookup(id)
	if entry == nil {
		return // another copy resolved the request
	}
	entry.copies--
	if tr := fm.c.tr; tr != nil {
		e := obs.At(now, obs.KindTimeout)
		e.Req = id
		tr.Emit(e)
	}
	if entry.attempts < fm.attemptCap() {
		fm.fs.Retried++
		fm.send(entry, now, false, obs.KindRetry)
		return
	}
	if entry.copies > 0 {
		return // a hedge twin may still succeed
	}
	fm.del(id)
	fm.recordLost(entry.req, now)
}

// recordLost finalizes a request as lost at time now.
func (fm *faultMode) recordLost(req workload.Request, now float64) {
	fm.fs.Lost++
	fm.st.record(Result{
		ID: req.ID, ArrivalMS: req.ArrivalMS,
		Dropped: true, Lost: true, SLOMiss: true, ExitIndex: -1,
	}, fm.c.base.Observer)
	if tr := fm.c.tr; tr != nil {
		e := obs.At(now, obs.KindLost)
		e.Req = req.ID
		tr.Emit(e)
	}
}

// onHedge fires at the hedge deadline: a request still unresolved gets
// one duplicate dispatched to a different replica; first copy to be
// batched wins.
func (fm *faultMode) onHedge(id int, now float64) {
	entry := fm.lookup(id)
	if entry == nil || entry.hedged {
		return
	}
	entry.hedged = true
	fm.fs.Hedged++
	fm.send(entry, now, false, obs.KindHedge)
}

// reject handles a queue-overflow bounce (TF-Serving's bounded queue):
// the dispatcher may retry the copy on another live replica while the
// attempt budget lasts; otherwise the drop is final once this was the
// last copy.
func (fm *faultMode) reject(r *replicaSim, req workload.Request, now float64) {
	entry := fm.lookup(req.ID)
	if entry == nil {
		return // stale copy bounced off a full queue
	}
	entry.copies--
	if entry.attempts < fm.attemptCap() && fm.liveOther(r.idx) {
		fm.fs.Retried++
		fm.send(entry, now, false, obs.KindRetry)
		return
	}
	if entry.copies > 0 {
		return
	}
	fm.del(req.ID)
	r.finish(Result{
		ID: req.ID, ArrivalMS: req.ArrivalMS,
		Dropped: true, SLOMiss: true, ExitIndex: -1,
	})
}

// complete arbitrates one copy's outcome from a replica. The first
// copy to resolve wins the request; later copies are wasted work. A
// policy drop only finalizes the request when it was the last
// outstanding copy — a hedge twin may still succeed elsewhere.
func (fm *faultMode) complete(r *replicaSim, res Result) {
	entry := fm.lookup(res.ID)
	if entry == nil {
		fm.fs.Wasted++
		return
	}
	entry.copies--
	if res.Dropped && entry.copies > 0 {
		return
	}
	fm.del(res.ID)
	r.finish(res)
	if !res.Dropped {
		fm.latQ.Add(res.LatencyMS)
	}
}

// attemptCap is the per-request dispatch budget (>= 1).
func (fm *faultMode) attemptCap() int {
	if fm.retry.Attempts > 1 {
		return fm.retry.Attempts
	}
	return 1
}

// liveOther reports whether any live active replica other than idx
// exists — the precondition for an overflow retry to go anywhere new.
func (fm *faultMode) liveOther(idx int) bool {
	for i := 0; i < fm.c.active; i++ {
		if i != idx && !fm.c.replicas[i].down {
			return true
		}
	}
	return false
}

// finish closes the books at the end of the run: open downtimes and
// unavailability windows are clipped at the final event time, and any
// request still unresolved (impossible under a well-formed schedule,
// handled defensively in deterministic ID order) is recorded lost.
func (fm *faultMode) finish(endMS float64) {
	for i, at := range fm.downAt {
		if !math.IsNaN(at) {
			d := endMS - at
			fm.fs.DowntimeMS[i] += d
			fm.fs.Outages.Add(d)
			fm.downAt[i] = math.NaN()
			if tr := fm.c.tr; tr != nil {
				// Balance the open crash span so the trace's down windows
				// reconcile with DowntimeMS even when the run ends mid-outage.
				e := obs.At(endMS, obs.KindRestart)
				e.Replica = i
				e.DurMS = d
				tr.Emit(e)
			}
		}
	}
	fm.closeUnavail(endMS)
	if fm.npend == 0 {
		return
	}
	ids := make([]int, 0, fm.npend)
	for i := range fm.pend {
		if fm.pend[i].id != -1 {
			ids = append(ids, fm.pend[i].id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		entry := fm.lookup(id)
		fm.del(id)
		fm.recordLost(entry.req, endMS)
	}
}
