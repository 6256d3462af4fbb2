package genserve

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// DefaultBlockTokens is the KV-block granularity used when Engine.KVBlocks
// sets a pool but Engine.BlockTokens is zero (vLLM's default block size).
const DefaultBlockTokens = 16

// kvActive reports whether any KV-runtime knob is set. With all of them
// zero, Run takes the classic slot path — byte-identical to the pre-KV
// engine, with no extra rng draws.
func (e *Engine) kvActive() bool {
	return e.KVBlocks > 0 || e.PrefixHitRatio > 0 || e.PrefillChunkTokens > 0
}

// Engine-event op codes dispatched to kvSim.OnEvent.
const (
	opKVArrive    uint8 = iota // a request reached the admission queue
	opKVMilestone              // a running sequence finished a prefill chunk or decode stretch
)

// kvSeq is one sequence's runtime state under the KV-block runtime.
type kvSeq struct {
	req    workload.GenRequest
	tokens []TokenResult

	// hit records the sequence's prefix-cache draw; effPrompt is the
	// prompt tokens the sequence must prefill and hold blocks for — 0 on
	// a hit, where the cached prefix's blocks are shared with the cache
	// rather than charged to the sequence.
	hit       bool
	effPrompt int

	// flushTail is the decode time beyond the per-token TPT sum — the
	// end-of-sequence standalone flush — charged to the final decode
	// stretch.
	flushTail float64

	// gDone counts generated tokens committed at milestones. A preempted
	// sequence resumes from here: re-admission recomputes (re-prefills)
	// effPrompt+gDone tokens, then decoding continues — vLLM's recompute
	// preemption. Token decisions are never re-drawn; the policy saw
	// each token exactly once at first admission.
	gDone       int
	prefillLeft int

	// pendingPrefill / pendingG describe the in-flight milestone: the
	// prefill tokens it completes, or the gDone it commits. pendingDur
	// is the milestone's duration, kept so the commit-time trace event
	// can report the span it covered.
	pendingPrefill int
	pendingG       int
	pendingDur     float64

	blocks     int
	slot       int
	enqueuedAt float64
	admittedAt float64
	startMS    float64
	started    bool
	waitMS     float64
	matchRate  float64
}

// kvSim runs one generative simulation under the KV-block memory
// runtime: admission is a FIFO queue on the engine clock gated by both a
// free decode slot and pool headroom, running sequences advance through
// per-sequence milestone events (prefill chunks, then decode stretches
// between block boundaries), and growth past the pool preempts +
// requeues the youngest running sequence deterministically.
type kvSim struct {
	e    *Engine
	pol  Policy
	loop *engine.Loop
	it   *workload.GenIter

	next   workload.GenRequest
	has    bool
	prefix *rng.Rand // the "gen.prefix" labeled stream; nil when ratio is 0

	blockTokens int
	waiting     []*kvSeq // FIFO; preempted sequences re-enter at the head
	slots       []*kvSeq // decode-slot table; nil = free
	// slotEpoch invalidates in-flight milestone events: every admission
	// to and eviction from a slot bumps its epoch, and a milestone whose
	// packed epoch is stale is dropped (the engine has no cancellation).
	slotEpoch []uint32
	freeSlots int
	running   int

	used     int     // blocks in use (tracked only when KVBlocks > 0)
	utilInt  float64 // ∫ used dt, folded at every pool transition
	utilLast float64

	// bufs is the free list of token buffers: a sequence takes one at
	// its first admission and returns it at completion, so buffers
	// number at most the sequences decided but not yet complete.
	bufs [][]TokenResult

	stats        *Stats
	sumRate      float64
	sumScore     float64
	totalWaitMS  float64
	firstArrival float64
	haveFirst    bool
	lastDone     float64

	// Observability sinks (nil = off; every emission site is
	// nil-guarded, so untraced runs stay byte- and alloc-identical).
	// intReported is the slice of utilInt already reported through
	// timeline rows, so each row's KVBlockMS is a telescoping delta and
	// the column sums exactly to the run's ∫used·dt.
	tr          *obs.Tracer
	tl          *obs.Timeline
	snapFn      func(float64) obs.Gauges
	intReported float64
}

// runKV serves the stream under the KV-block memory runtime.
func (e *Engine) runKV(stream *workload.GenStream, pol Policy) *Stats {
	k := &kvSim{
		e:           e,
		pol:         pol,
		loop:        engine.New(),
		it:          stream.Iter(),
		blockTokens: e.BlockTokens,
		slots:       make([]*kvSeq, e.MaxConcurrent),
		slotEpoch:   make([]uint32, e.MaxConcurrent),
		freeSlots:   e.MaxConcurrent,
		stats:       e.newStats(stream),
	}
	if k.blockTokens <= 0 {
		k.blockTokens = DefaultBlockTokens
	}
	if e.PrefixHitRatio > 0 {
		k.prefix = rng.Labeled(e.Seed, "gen.prefix")
	}
	if r, ok := k.it.Next(); ok {
		k.next, k.has = r, true
	}
	k.tr, k.tl = e.Trace, e.Timeline
	if k.tl != nil {
		// Sample from the advance hook, never from tick events on the
		// heap — the clock must not move for the sampler's sake (same
		// rule as the cluster path).
		k.tl.Gen = true
		k.snapFn = k.gauges
		k.loop.OnAdvance(func(prev, now float64) { k.tl.CatchUp(now, k.snapFn) })
	}
	k.loop.Add(k)
	k.loop.Run()
	if k.tl != nil && k.haveFirst {
		k.tl.Finish(k.loop.Now(), k.snapFn)
	}
	if k.stats.Seqs > 0 {
		k.stats.MeanMatchRate = k.sumRate / float64(k.stats.Seqs)
		k.stats.MeanScore = k.sumScore / float64(k.stats.Seqs)
		k.stats.QueueMS = k.totalWaitMS / float64(k.stats.Seqs)
		if span := k.lastDone - k.firstArrival; span > 0 {
			k.stats.TokensPerSec = float64(k.stats.TotalTokens) / span * 1000
			if e.KVBlocks > 0 {
				k.foldUtil(k.lastDone)
				k.stats.KVUtil = k.utilInt / (float64(e.KVBlocks) * span)
			}
		}
	}
	return k.stats
}

// Start schedules the first arrival; kvSim is an engine.Process.
func (k *kvSim) Start(l *engine.Loop) {
	if k.has {
		l.Schedule(k.next.ArrivalMS, classArrival, k, opKVArrive, 0)
	}
}

// OnEvent dispatches engine events; kvSim is its own pre-bound handler.
// Milestone args pack slot<<32 | epoch so a stale event (its sequence
// was preempted after scheduling) is recognized and dropped.
func (k *kvSim) OnEvent(now float64, op uint8, arg uint64) {
	switch op {
	case opKVArrive:
		k.arrive(now)
	case opKVMilestone:
		slot := int(arg >> 32)
		if s := k.slots[slot]; s != nil && uint32(arg) == k.slotEpoch[slot] {
			k.milestone(s, now)
		}
	}
	k.pump(now)
}

// arrive moves the pending request into the admission queue, drawing its
// prefix-cache fate, and arms the next arrival event (one request of
// lookahead, as in the classic path).
func (k *kvSim) arrive(now float64) {
	req := k.next
	if r, ok := k.it.Next(); ok {
		k.next = r
		k.loop.Schedule(r.ArrivalMS, classArrival, k, opKVArrive, 0)
	} else {
		k.next, k.has = workload.GenRequest{}, false
	}
	if !k.haveFirst {
		k.firstArrival, k.haveFirst = req.ArrivalMS, true
	}
	s := &kvSeq{req: req, effPrompt: req.PromptLen, enqueuedAt: now}
	if k.tr != nil {
		e := obs.At(now, obs.KindSeqArrive)
		e.Req = req.ID
		e.Val = req.PromptLen
		k.tr.Emit(e)
	}
	if k.prefix != nil && k.prefix.Float64() < k.e.PrefixHitRatio {
		s.hit = true
		s.effPrompt = 0
		k.stats.PrefixHits++
		if k.tr != nil {
			e := obs.At(now, obs.KindPrefixHit)
			e.Req = req.ID
			k.tr.Emit(e)
		}
	}
	k.waiting = append(k.waiting, s)
}

// pump admits from the head of the queue while a slot is free and the
// head's working set fits the pool. Admission is strictly FIFO — a head
// that does not fit blocks everything behind it until memory frees.
func (k *kvSim) pump(now float64) {
	for len(k.waiting) > 0 && k.freeSlots > 0 && k.fits(k.waiting[0]) {
		s := k.waiting[0]
		k.waiting[0] = nil
		k.waiting = k.waiting[1:]
		k.admit(s, now)
	}
}

// fits reports whether the sequence's working set — blocks for its
// recompute prefix plus the first new token — has pool headroom. A
// sequence too large to ever fit is still admitted once the pool is
// completely idle, so the queue cannot wedge.
func (k *kvSim) fits(s *kvSeq) bool {
	if k.e.KVBlocks <= 0 {
		return true
	}
	need := k.blocksFor(s.effPrompt + s.gDone + 1)
	return k.used+need <= k.e.KVBlocks || k.running == 0
}

func (k *kvSim) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + k.blockTokens - 1) / k.blockTokens
}

// admit claims a slot and the recompute working set's blocks, decides
// the sequence's tokens on first admission, and schedules its first
// milestone.
func (k *kvSim) admit(s *kvSeq, now float64) {
	k.freeSlots--
	k.running++
	s.waitMS += now - s.enqueuedAt
	s.admittedAt = now
	slot := -1
	for i, occ := range k.slots {
		if occ == nil {
			slot = i
			break
		}
	}
	s.slot = slot
	k.slots[slot] = s
	k.slotEpoch[slot]++
	if !s.started {
		s.started = true
		s.startMS = now
		var buf []TokenResult
		if n := len(k.bufs); n > 0 {
			buf, k.bufs = k.bufs[n-1], k.bufs[:n-1]
		}
		var total float64
		s.tokens, total = k.e.decodeSequence(s.req, k.pol, buf)
		for _, tk := range s.tokens {
			total -= tk.TPTms
		}
		s.flushTail = total
		k.record(s)
	}
	if k.e.KVBlocks > 0 {
		k.grant(s, k.blocksFor(s.effPrompt+s.gDone), now)
	}
	if k.tr != nil {
		e := obs.At(now, obs.KindKVAdmit)
		e.Req = s.req.ID
		e.Replica = s.slot
		e.Val = s.blocks
		e.DurMS = now - s.enqueuedAt
		k.tr.Emit(e)
	}
	s.prefillLeft = s.effPrompt + s.gDone
	k.advance(s, now)
}

// record folds the sequence's decided tokens into the run's aggregates —
// once, at first admission, exactly when the classic path would.
func (k *kvSim) record(s *kvSeq) {
	match := 0
	for _, tk := range s.tokens {
		if tk.Match {
			match++
		}
		k.stats.TPTRec.Add(tk.TPTms)
	}
	rate := 1.0
	if len(s.tokens) > 0 {
		rate = float64(match) / float64(len(s.tokens))
	}
	s.matchRate = rate
	k.sumRate += rate
	k.sumScore += ScoreFromMatchRate(rate)
	k.stats.Seqs++
	k.stats.TotalTokens += len(s.tokens)
}

// advance schedules the sequence's next milestone: a prefill chunk, a
// decode stretch to the next block boundary, or completion.
func (k *kvSim) advance(s *kvSeq, now float64) {
	if s.prefillLeft > 0 {
		chunk := s.prefillLeft
		if c := k.e.PrefillChunkTokens; c > 0 && chunk > c {
			chunk = c
		}
		s.pendingPrefill = chunk
		s.pendingDur = k.e.prefillMS(chunk)
		k.schedule(s, now+s.pendingDur)
		return
	}
	if s.gDone >= s.req.GenLen {
		k.complete(s, now)
		return
	}
	gNext := s.req.GenLen
	if k.e.KVBlocks > 0 {
		headroom := s.blocks*k.blockTokens - (s.effPrompt + s.gDone)
		if headroom <= 0 {
			if !k.acquire(s, now) {
				return // s itself was preempted while asking for a block
			}
			headroom = s.blocks*k.blockTokens - (s.effPrompt + s.gDone)
		}
		if g := s.gDone + headroom; g < gNext {
			gNext = g
		}
	}
	dur := 0.0
	for i := s.gDone; i < gNext; i++ {
		dur += s.tokens[i].TPTms
	}
	if gNext == s.req.GenLen {
		dur += s.flushTail
	}
	s.pendingG = gNext
	s.pendingDur = dur
	k.schedule(s, now+dur)
}

// milestone commits the in-flight chunk or decode stretch and advances.
// Trace slices emit here, at commit time, so work lost to preemption
// never appears in the trace.
func (k *kvSim) milestone(s *kvSeq, now float64) {
	if s.pendingPrefill > 0 {
		if k.tr != nil {
			e := obs.At(now, obs.KindPrefillChunk)
			e.Req = s.req.ID
			e.Replica = s.slot
			e.Val = s.pendingPrefill
			e.DurMS = s.pendingDur
			k.tr.Emit(e)
		}
		s.prefillLeft -= s.pendingPrefill
		s.pendingPrefill = 0
	} else {
		if k.tr != nil {
			e := obs.At(now, obs.KindDecodeFlush)
			e.Req = s.req.ID
			e.Replica = s.slot
			e.Val = s.pendingG - s.gDone
			e.DurMS = s.pendingDur
			k.tr.Emit(e)
		}
		s.gDone = s.pendingG
	}
	k.advance(s, now)
}

func (k *kvSim) schedule(s *kvSeq, at float64) {
	arg := uint64(s.slot)<<32 | uint64(k.slotEpoch[s.slot])
	k.loop.Schedule(at, classSlotFree, k, opKVMilestone, arg)
}

// acquire grants the sequence one more KV block, preempting the
// youngest running sequence while the pool is exhausted. It returns
// false when the requester itself was the victim — it is the youngest —
// and has been requeued. A sole runner is always granted (the pool may
// transiently oversubscribe) so one oversized sequence cannot wedge the
// engine.
func (k *kvSim) acquire(s *kvSeq, now float64) bool {
	for k.used >= k.e.KVBlocks && k.running > 1 {
		v := k.youngest()
		if v == s {
			k.preempt(s, now)
			return false
		}
		k.preempt(v, now)
	}
	k.grant(s, 1, now)
	return true
}

// grant charges n pool blocks to the sequence, without admission checks
// (callers gate on fits / acquire).
func (k *kvSim) grant(s *kvSeq, n int, now float64) {
	if n <= 0 {
		return
	}
	k.foldUtil(now)
	k.used += n
	s.blocks += n
}

// youngest returns the most recently admitted running sequence, ties
// broken by the larger request ID — a total, deterministic order.
func (k *kvSim) youngest() *kvSeq {
	var y *kvSeq
	for _, s := range k.slots {
		if s == nil {
			continue
		}
		if y == nil || s.admittedAt > y.admittedAt ||
			(s.admittedAt == y.admittedAt && s.req.ID > y.req.ID) {
			y = s
		}
	}
	return y
}

// preempt evicts a running sequence: its blocks and slot free, any
// in-flight milestone goes stale, mid-stretch work is lost (it resumes
// from its last committed milestone and recomputes on re-admission),
// and it re-enters the queue at the head so FIFO order is preserved for
// work already granted.
func (k *kvSim) preempt(v *kvSeq, now float64) {
	k.stats.Preemptions++
	if k.tr != nil {
		e := obs.At(now, obs.KindPreempt)
		e.Req = v.req.ID
		e.Replica = v.slot
		e.Val = v.blocks
		e.DurMS = now - v.admittedAt
		k.tr.Emit(e)
	}
	k.slotEpoch[v.slot]++
	k.slots[v.slot] = nil
	k.freeSlots++
	k.running--
	if v.blocks > 0 {
		k.foldUtil(now)
		k.used -= v.blocks
		v.blocks = 0
	}
	v.pendingPrefill, v.pendingG = 0, 0
	v.enqueuedAt = now
	k.waiting = append(k.waiting, nil)
	copy(k.waiting[1:], k.waiting)
	k.waiting[0] = v
	if k.tr != nil {
		e := obs.At(now, obs.KindSeqRequeue)
		e.Req = v.req.ID
		e.Val = len(k.waiting)
		k.tr.Emit(e)
	}
}

// complete retires a finished sequence, freeing its slot and blocks.
func (k *kvSim) complete(s *kvSeq, now float64) {
	if k.tr != nil {
		e := obs.At(now, obs.KindSeqComplete)
		e.Req = s.req.ID
		e.Replica = s.slot
		e.DurMS = now - s.admittedAt
		e.LatMS = now - s.req.ArrivalMS
		k.tr.Emit(e)
	}
	if k.tl != nil {
		k.tl.Observe(now-s.req.ArrivalMS, false)
	}
	k.slotEpoch[s.slot]++
	k.slots[s.slot] = nil
	k.freeSlots++
	k.running--
	if s.blocks > 0 {
		k.foldUtil(now)
		k.used -= s.blocks
		s.blocks = 0
	}
	k.totalWaitMS += s.waitMS
	if now > k.lastDone {
		k.lastDone = now
	}
	if k.e.OnSeq != nil {
		k.e.OnSeq(SeqResult{
			Request: s.req, StartMS: s.startMS, DoneMS: now,
			Tokens: slices.Clone(s.tokens), MatchRate: s.matchRate,
		})
	}
	k.bufs = append(k.bufs, s.tokens[:0])
}

// foldUtil integrates the pool occupancy up to now.
func (k *kvSim) foldUtil(now float64) {
	k.utilInt += float64(k.used) * (now - k.utilLast)
	k.utilLast = now
}

// gauges snapshots the KV runtime at tick instant tMS. Ticks fire from
// the advance hook, so tMS lies in (prev event, next event] and every
// counter still holds its pre-event value — exactly the state at tMS.
// The block-ms integral is evaluated exactly at tMS (without folding it
// into utilInt, which belongs to event processing) and reported as a
// delta against what earlier rows already carried, so the kv_block_ms
// column telescopes to the run's full ∫used·dt.
func (k *kvSim) gauges(tMS float64) obs.Gauges {
	g := obs.Gauges{Running: k.running, Queued: len(k.waiting), Preempts: k.stats.Preemptions}
	if k.has && k.next.ArrivalMS <= tMS {
		g.Queued++ // the armed arrival has arrived by tMS but its event hasn't fired
	}
	if k.e.KVBlocks > 0 {
		g.KVHeld = k.used
		g.KVFree = k.e.KVBlocks - k.used
		g.KVUtil = float64(k.used) / float64(k.e.KVBlocks)
		total := k.utilInt + float64(k.used)*(tMS-k.utilLast)
		g.KVBlockMS = total - k.intReported
		k.intReported = total
	}
	return g
}
