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

// Engine-event op codes dispatched to kvSim.OnEvent.
const (
	opKVArrive    uint8 = iota // a request reached the admission queue
	opKVMilestone              // a running sequence finished a prefill chunk or decode stretch
)

// arrival is a fresh request waiting for its first admission. effPrompt
// is the prompt tokens it must prefill and hold blocks for — 0 after a
// prefix-cache hit, where the cached prefix's blocks are shared with the
// cache rather than charged to the sequence. The queue holds arrivals
// by value, so a backlog costs no allocation per request; admission
// turns one into a kvSeq.
type arrival struct {
	req       workload.GenRequest
	effPrompt int
}

// kvSeq is one admitted sequence's runtime state. It lives from its
// first admission to its completion; then a later admission reuses it,
// token buffer included.
type kvSeq struct {
	req    workload.GenRequest
	tokens []TokenResult

	effPrompt int // as in arrival

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
	waitMS     float64
	matchRate  float64
}

// kvSim is the generative runtime: admission is a FIFO queue on the
// engine clock gated by a free decode slot and, when KVBlocks bounds the
// pool, by block headroom. Running sequences advance through
// per-sequence milestone events (prefill chunks, then decode stretches
// between block boundaries), and growth past the pool preempts +
// requeues the youngest running sequence deterministically. With no KV
// knob set the pool is unbounded, nothing is preempted, and each
// sequence runs one monolithic prefill and one decode stretch.
type kvSim struct {
	e    *Engine
	pol  Policy
	loop *engine.Loop
	it   *workload.GenIter

	next   workload.GenRequest
	has    bool
	prefix *rng.Rand // the "gen.prefix" labeled stream; nil when ratio is 0

	blockTokens int
	// The admission queue: preempted sequences, most recently preempted
	// on top, admit before fresh[head:], the arrivals in FIFO order.
	requeued []*kvSeq
	fresh    []arrival
	head     int
	slots    []*kvSeq // decode-slot table; nil = free
	// slotEpoch invalidates in-flight milestone events: every admission
	// to and eviction from a slot bumps its epoch, and a milestone whose
	// packed epoch is stale is dropped (the engine has no cancellation).
	slotEpoch []uint32
	freeSlots int
	running   int

	used     int     // blocks in use (tracked only when KVBlocks > 0)
	utilInt  float64 // ∫ used dt, folded at every pool transition
	utilLast float64

	// retired holds completed sequences for reuse by later admissions,
	// so kvSeqs and their token buffers number at most the sequences
	// admitted but not yet complete.
	retired []*kvSeq

	stats        *Stats
	sumRate      float64
	sumScore     float64
	totalWaitMS  float64
	firstArrival float64
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

// newKVSim builds a run on a fresh engine loop with the first arrival
// armed; running the loop serves the stream.
func (e *Engine) newKVSim(stream *workload.GenStream, pol Policy) *kvSim {
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
		k.firstArrival = r.ArrivalMS
	}
	k.tr, k.tl = e.Trace, e.Timeline
	if k.tr != nil {
		k.tr.Gen = true
	}
	if k.tl != nil {
		// Sample from the advance hook, never from tick events on the
		// heap — the clock must not move for the sampler's sake (same
		// rule as the cluster path).
		k.tl.Gen = true
		k.snapFn = k.gauges
		k.loop.OnAdvance(func(prev, now float64) { k.tl.CatchUp(now, k.snapFn) })
	}
	k.loop.Add(k)
	return k
}

// finish closes the timeline and folds the run's aggregates into its
// Stats once the loop has drained.
func (k *kvSim) finish() *Stats {
	if k.stats.Seqs == 0 {
		return k.stats
	}
	if k.tl != nil {
		k.tl.Finish(k.loop.Now(), k.snapFn)
	}
	k.stats.MeanMatchRate = k.sumRate / float64(k.stats.Seqs)
	k.stats.MeanScore = k.sumScore / float64(k.stats.Seqs)
	k.stats.QueueMS = k.totalWaitMS / float64(k.stats.Seqs)
	if span := k.lastDone - k.firstArrival; span > 0 {
		k.stats.TokensPerSec = float64(k.stats.TotalTokens) / span * 1000
		if k.e.KVBlocks > 0 {
			k.foldUtil(k.lastDone)
			k.stats.KVUtil = k.utilInt / (float64(k.e.KVBlocks) * span)
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
// prefix-cache fate, and arms the next arrival event.
func (k *kvSim) arrive(now float64) {
	a := arrival{req: k.next, effPrompt: k.next.PromptLen}
	if r, ok := k.it.Next(); ok {
		k.next = r
		k.loop.Schedule(r.ArrivalMS, classArrival, k, opKVArrive, 0)
	} else {
		k.next, k.has = workload.GenRequest{}, false
	}
	if k.tr != nil {
		e := obs.At(now, obs.KindSeqArrive)
		e.Req = a.req.ID
		e.Val = a.req.PromptLen
		k.tr.Emit(e)
	}
	if k.prefix != nil && k.prefix.Float64() < k.e.PrefixHitRatio {
		a.effPrompt = 0
		k.stats.PrefixHits++
		if k.tr != nil {
			e := obs.At(now, obs.KindPrefixHit)
			e.Req = a.req.ID
			k.tr.Emit(e)
		}
	}
	// Slide the waiting arrivals down over the admitted ones once those
	// are at least half the slice: each slide copies no more entries than
	// were admitted since the last, and the slice stays within twice the
	// backlog.
	if k.head > 0 && 2*k.head >= len(k.fresh) {
		k.fresh = k.fresh[:copy(k.fresh, k.fresh[k.head:])]
		k.head = 0
	}
	k.fresh = append(k.fresh, a)
}

// backlog counts the sequences waiting for admission.
func (k *kvSim) backlog() int { return len(k.requeued) + len(k.fresh) - k.head }

// pump admits from the head of the queue while a slot is free and the
// head's working set — blocks for its recompute prefix plus the first
// new token — fits the pool. Admission is strictly FIFO: a head that
// does not fit blocks everything behind it until memory frees.
func (k *kvSim) pump(now float64) {
	for k.freeSlots > 0 {
		if n := len(k.requeued); n > 0 {
			s := k.requeued[n-1]
			if !k.fits(s.effPrompt + s.gDone + 1) {
				return
			}
			k.requeued = k.requeued[:n-1]
			k.admit(s, now)
			continue
		}
		if k.head == len(k.fresh) || !k.fits(k.fresh[k.head].effPrompt+1) {
			return
		}
		a := k.fresh[k.head]
		k.head++
		k.admit(k.start(a, now), now)
	}
}

// fits reports whether a working set of this many tokens has pool
// headroom. A sequence too large to ever fit is still admitted once the
// pool is completely idle, so the queue cannot wedge.
func (k *kvSim) fits(tokens int) bool {
	if k.e.KVBlocks <= 0 {
		return true
	}
	return k.used+k.blocksFor(tokens) <= k.e.KVBlocks || k.running == 0
}

func (k *kvSim) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + k.blockTokens - 1) / k.blockTokens
}

// start turns an arrival into a sequence at its first admission: it
// reuses a retired kvSeq when there is one, decides every token under
// the policy into its buffer, and folds them into the run's aggregates.
func (k *kvSim) start(a arrival, now float64) *kvSeq {
	var s *kvSeq
	if n := len(k.retired); n > 0 {
		s, k.retired = k.retired[n-1], k.retired[:n-1]
	} else {
		s = new(kvSeq)
	}
	*s = kvSeq{
		req: a.req, tokens: s.tokens[:0], effPrompt: a.effPrompt,
		enqueuedAt: a.req.ArrivalMS, startMS: now,
	}
	var total float64
	s.tokens, total = k.e.decodeSequence(s.req, k.pol, s.tokens)
	for _, tk := range s.tokens {
		total -= tk.TPTms
	}
	s.flushTail = total
	k.record(s)
	return s
}

// admit claims a slot and the recompute working set's blocks, and
// schedules the sequence's first milestone.
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

// record folds the sequence's decided tokens into the run's aggregates,
// once, at its first admission.
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
	k.loop.Schedule(at, classMilestone, k, opKVMilestone, arg)
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
// and it re-enters the queue at the head, ahead of fresh arrivals and
// of sequences preempted before it.
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
	k.requeued = append(k.requeued, v)
	if k.tr != nil {
		e := obs.At(now, obs.KindSeqRequeue)
		e.Req = v.req.ID
		e.Val = k.backlog()
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
	k.retired = append(k.retired, s)
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
	g := obs.Gauges{Running: k.running, Queued: k.backlog(), Preempts: k.stats.Preemptions}
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
