package serving

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// refLookahead wraps the arrival iterator with a one-request peek
// buffer — all the future the scheduling policies ever need.
type refLookahead struct {
	src *workload.Iter
	buf workload.Request
	has bool
	eof bool
}

func (l *refLookahead) peek() (workload.Request, bool) {
	if l.has {
		return l.buf, true
	}
	if l.eof {
		return workload.Request{}, false
	}
	r, ok := l.src.Next()
	if !ok {
		l.eof = true
		return workload.Request{}, false
	}
	l.buf, l.has = r, true
	return r, true
}

func (l *refLookahead) pop() (workload.Request, bool) {
	r, ok := l.peek()
	l.has = false
	return r, ok
}

// refRun is the single-replica simulator Run was before it became the
// cluster runtime at width one, kept verbatim as the reference: a
// time-stepped loop that admits every arrival by now, then forms one
// batch with the shared clockworkPick/tfservePick policies.
func refRun(src *workload.Iter, h Handler, opts Options) *Stats {
	opts = opts.withDefaults()
	st := &Stats{Lat: metrics.NewRecorder(opts.Metrics, 4096)}
	in := &refLookahead{src: src}

	now := 0.0 // GPU-free time
	// queue[qhead:] is the live queue. Consumption advances qhead
	// instead of re-slicing the front off (which would strand the
	// array's spare capacity and cost one allocation per request); the
	// dead prefix is compacted back to the front at the top of the loop
	// once it outgrows the live tail.
	queue := make([]workload.Request, 0, opts.MaxBatch*4)
	qhead := 0

	tr, tl := opts.Trace, opts.Timeline
	rec := func(r Result) {
		st.record(r, opts.Observer)
		if tr != nil && r.Dropped {
			e := obs.At(now, obs.KindDrop)
			e.Req = r.ID
			tr.Emit(e)
		}
	}
	// admit traces one arrival joining the queue (or, during catch-up
	// batching, the forming batch) on the single replica's track.
	admit := func(req workload.Request, depth int) {
		if tr == nil {
			return
		}
		e := obs.At(req.ArrivalMS, obs.KindArrive)
		e.Req = req.ID
		tr.Emit(e)
		e.Kind = obs.KindEnqueue
		e.Replica = 0
		e.Val = depth
		tr.Emit(e)
	}

	// snap is the timeline's gauge callback, bound once: it reads the
	// loop variables through the closure, and each emitted row gets its
	// own one-element depth slice (rows retain their slices).
	var snap func(float64) obs.Gauges
	if tl != nil {
		snap = func(float64) obs.Gauges {
			d := len(queue) - qhead
			return obs.Gauges{Replicas: 1, Live: 1, Queued: d, QueueDepths: []int{d}}
		}
	}

	for {
		// No batch aliases the dead prefix at the top of the loop, so
		// reclaim it here: rewind when empty, compact once the prefix
		// outgrows the live tail (amortized O(1) per request).
		if qhead == len(queue) {
			queue, qhead = queue[:0], 0
		} else if qhead > len(queue)-qhead {
			n := copy(queue, queue[qhead:])
			queue, qhead = queue[:n], 0
		}
		if tl != nil {
			tl.CatchUp(now, snap)
		}
		// Admit every request that has arrived by `now`.
		for {
			next, ok := in.peek()
			if !ok || next.ArrivalMS > now {
				break
			}
			in.pop()
			st.noteArrival(next)
			if opts.Platform == TFServe && len(queue)-qhead >= opts.QueueCap {
				if tr != nil {
					e := obs.At(next.ArrivalMS, obs.KindArrive)
					e.Req = next.ID
					tr.Emit(e)
				}
				rec(Result{
					ID: next.ID, ArrivalMS: next.ArrivalMS,
					Dropped: true, SLOMiss: true, ExitIndex: -1,
				})
			} else {
				queue = append(queue, next)
				admit(next, len(queue)-qhead)
			}
		}
		if len(queue)-qhead == 0 {
			next, ok := in.peek()
			if !ok {
				break // stream exhausted and nothing queued: done
			}
			// Idle: jump to the next arrival.
			now = next.ArrivalMS
			continue
		}

		var batch []workload.Request
		switch opts.Platform {
		case Clockwork:
			var rest []workload.Request
			batch, rest = clockworkPick(queue[qhead:], rec, now, h, opts)
			qhead = len(queue) - len(rest)
			if batch == nil {
				// Everything queued was dropped; loop to admit more.
				continue
			}
			// Catch-up batching: when the backlog is real (the oldest
			// request has already burned a quarter of its SLO), briefly
			// holding the GPU for imminent arrivals forms a larger batch
			// whose amortization drains the backlog — larger batches
			// have far lower per-request cost (§2.1). The hold is
			// admitted only while the oldest request still meets its
			// SLO.
			if len(rest) == 0 { // the batch took the whole queue
				oldestWait := now - batch[0].ArrivalMS
				if oldestWait > 0.25*opts.SLOms {
					// The batch is the tail of the queue's array, so it
					// grows in place by appending to the queue and
					// re-slicing — no copy.
					bstart := len(queue) - len(batch)
					for len(batch) < opts.MaxBatch {
						nreq, ok := in.peek()
						if !ok {
							break
						}
						next := nreq.ArrivalMS
						hold := next - now
						if hold < 0 {
							hold = 0
						}
						if oldestWait+hold+h.BatchLatency(len(batch)+1) > opts.SLOms {
							break
						}
						if next > now {
							now = next
							oldestWait = now - batch[0].ArrivalMS
						}
						in.pop()
						st.noteArrival(nreq)
						queue = append(queue, nreq)
						qhead = len(queue)
						batch = queue[bstart:]
						admit(nreq, len(batch))
					}
				}
			}
		case TFServe:
			next, more := in.peek()
			var rest []workload.Request
			batch, rest = tfservePick(queue[qhead:], now, more, opts)
			if batch == nil {
				// Wait for either the timeout or the next arrival,
				// whichever first.
				wait := queue[qhead].ArrivalMS + opts.BatchTimeoutMS - now
				if more && next.ArrivalMS > now && next.ArrivalMS-now < wait {
					wait = next.ArrivalMS - now
				}
				if wait <= 0 {
					wait = 1e-6
				}
				now += wait
				continue
			}
			qhead = len(queue) - len(rest)
		}

		b := len(batch)
		start := now
		dur := h.BatchLatency(b)
		st.batches.Add(float64(b))
		if tr != nil {
			e := obs.At(start, obs.KindServeStart)
			e.Replica = 0
			e.Batch = b
			e.DurMS = dur
			tr.Emit(e)
		}
		for _, req := range batch {
			out := h.Serve(req.Sample, b)
			lat := start + out.ServeMS - req.ArrivalMS
			miss := lat > opts.SLOms
			st.record(Result{
				ID:        req.ID,
				ArrivalMS: req.ArrivalMS,
				LatencyMS: lat,
				ServeMS:   out.ServeMS,
				BatchSize: b,
				ExitIndex: out.ExitIndex,
				Correct:   out.Correct,
				SLOMiss:   miss,
			}, opts.Observer)
			if tr != nil {
				e := obs.At(req.ArrivalMS+lat, obs.KindComplete)
				e.Req = req.ID
				e.Replica = 0
				e.Batch = b
				e.LatMS = lat
				tr.Emit(e)
			}
			if tl != nil {
				tl.Observe(lat, miss)
			}
		}
		now = start + dur
	}

	if tl != nil {
		tl.Finish(now, func(float64) obs.Gauges {
			return obs.Gauges{Replicas: 1, Live: 1, QueueDepths: []int{0}}
		})
	}
	st.finalize()
	return st
}
