// Package genserve simulates generative LLM serving (§3.4, §4.3):
// continuous batching over a fixed pool of decode slots, per-token early
// exits between decoder blocks, and the synchronized parallel-decoding
// mechanism that recovers exit savings despite auto-regressive KV
// dependencies — an exited token's remaining layers run batched alongside
// the next non-exiting token (or a periodic flush), so time-per-token
// (TPT) improves for exiting tokens at a mild penalty for the flusher.
//
// Like the classification simulator, the engine streams — sequences are
// pulled from the workload iterator one at a time and every token's TPT
// is folded into a metrics.Recorder — and it runs on the shared
// discrete-event core (internal/engine): decode-slot completions are
// events on the same kind of clock that drives the cluster simulator.
// A sequence's state lives only while it is in flight, and its token
// buffer is reused by later sequences. The recorder is what grows with
// the stream: a sketch is O(1), but exact mode keeps every token's TPT,
// in one allocation sized to the stream's total generation length
// (GenStream.Tokens).
package genserve

import (
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TokenResult records one generated token.
type TokenResult struct {
	// TPTms is the time between this token's emission and the previous
	// one's (time-per-token).
	TPTms float64
	// Exited reports whether the token's result left at a ramp.
	Exited bool
	// Match reports whether the released token equals the original
	// model's token (non-exits always match).
	Match bool
}

// SeqResult is one completed sequence.
type SeqResult struct {
	Request workload.GenRequest
	StartMS float64
	DoneMS  float64
	// Tokens is the sequence's own copy of its per-token results; the
	// engine reuses its token buffers, never this slice.
	Tokens []TokenResult
	// MatchRate is the fraction of released tokens agreeing with the
	// original model — the proxy behind the ROUGE-L / F1 sequence
	// scores.
	MatchRate float64
}

// Stats aggregates a generative run: summaries only, never the
// per-sequence results (hook Engine.OnSeq to tap those).
type Stats struct {
	// TPTRec records every token's time-per-token.
	TPTRec metrics.Recorder
	// Seqs counts completed sequences.
	Seqs int
	// MeanMatchRate averages sequence match rates (1.0 = the original
	// model's output exactly).
	MeanMatchRate float64
	// MeanScore averages the ROUGE-L / F1 proxy across sequences.
	MeanScore float64
	// TotalTokens counts every generated token across sequences. Callers
	// must not query TPT() percentiles when this is zero (empty stream or
	// all-zero GenLen): metrics pins Percentile-on-empty as a panic.
	TotalTokens int
	// TokensPerSec is the delivered token throughput over the makespan
	// (first arrival to last sequence completion).
	TokensPerSec float64

	// KV-block runtime activity; all zero unless a KV knob is set on the
	// Engine (KVBlocks / PrefixHitRatio / PrefillChunkTokens).
	//
	// KVUtil is the time-averaged fraction of the KV pool in use over the
	// makespan (0 when the pool is unbounded). PrefixHits counts
	// sequences whose prompt prefix hit the cache. Preemptions counts
	// preempt-and-requeue events. QueueMS is the mean per-sequence
	// admission-queue wait, including re-queues after preemption.
	KVUtil      float64
	PrefixHits  int
	Preemptions int
	QueueMS     float64
}

// ScoreFromMatchRate maps a token match rate to a sequence-quality score
// in the spirit of ROUGE-L / F1: sequence metrics are concave in token
// agreement (a few divergent tokens barely move the score), which is why
// the paper notes that sequence-level accuracy "grants more flexibility
// for exiting decisions at individual tokens" (§4.3).
func ScoreFromMatchRate(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Sqrt(r)
}

// TokenBudget converts a sequence-score accuracy budget into the
// token-level mismatch budget the adaptation loops enforce. With
// score = sqrt(rate) a score loss of b tolerates a token-rate loss of
// 1-(1-b)^2 ≈ 2b; the budget keeps a safety margin below that bound so
// transients (drift between tuning rounds) stay inside the constraint.
func TokenBudget(seqBudget float64) float64 {
	b := 1.5 * seqBudget
	if b > 1 {
		b = 1
	}
	return b
}

// TPT returns the time-per-token recorder across every token of every
// sequence.
func (s *Stats) TPT() metrics.Recorder { return s.TPTRec }

// Policy decides, per token, whether and where the token exits.
type Policy interface {
	// Decide returns the exit depth fraction for this token's sample and
	// whether the released token matches the oracle; exit=false means a
	// full pass. overheadFrac is the ramp overhead the token pays.
	Decide(s exitsim.Sample) (exit bool, depth, overheadFrac float64, match bool)
	// ObserveFlush tells the policy a parallel-decoding instance ended
	// (feedback boundary, §3.4).
	ObserveFlush()
}

// Engine runs generative serving simulations.
type Engine struct {
	Model   *model.Model
	Profile exitsim.Profile
	// MaxConcurrent is the continuous-batching slot count; arrivals are
	// configured to saturate it (§4.1), so decode steps run at this
	// batch size.
	MaxConcurrent int
	// FlushCount flushes accumulated exited tokens after this many even
	// without a non-exiting token (bounds KV-state lag, §4.4).
	FlushCount int
	// Metrics selects the TPT recorder implementation (exact | sketch).
	Metrics metrics.Mode
	// OnSeq, when non-nil, receives every completed sequence in
	// completion order; the engine itself retains none of them. Each
	// result's Tokens is a fresh copy the callee may keep, made only
	// when OnSeq is set.
	OnSeq func(SeqResult)

	// Trace, when non-nil, receives sequence-lifecycle events
	// (seq_arrive / kv_admit / prefill_chunk / decode_flush / preempt /
	// seq_requeue / seq_complete). Timeline, when non-nil, samples
	// KV-pool and queue gauges on the engine clock's advance hook. Both
	// are passive sinks: nil-guarded emission sites, so leaving them nil
	// is byte- and alloc-identical to an engine without them.
	Trace    *obs.Tracer
	Timeline *obs.Timeline

	// KVBlocks bounds the engine's KV-block pool: a sequence must hold
	// ⌈(prompt+generated)/BlockTokens⌉ blocks to run, admission blocks
	// (FIFO) when the pool is exhausted, and growth past the pool
	// preempts + requeues the youngest running sequence. 0 = unbounded
	// (the pre-KV engine).
	KVBlocks int
	// BlockTokens is the KV-block granularity in tokens; 0 means
	// DefaultBlockTokens. Meaningful only with KVBlocks > 0.
	BlockTokens int
	// PrefixHitRatio is the probability a sequence's prompt prefix is
	// resident in the prefix cache (hit ⇒ prefill skipped and the cached
	// blocks are shared, not charged to the sequence). Draws come only
	// from the dedicated rng.Labeled(Seed, "gen.prefix") stream, so a
	// ratio of 0 performs no draws at all.
	PrefixHitRatio float64
	// PrefillChunkTokens chunks prompts longer than this threshold into
	// chunks of this size, each its own event on the engine clock, so
	// long prefills interleave with decode progress instead of being one
	// opaque lump. 0 = monolithic prefill.
	PrefillChunkTokens int
	// Seed drives engine-internal randomness (the gen.prefix stream).
	Seed uint64
}

// NewEngine returns an engine with the paper's defaults.
func NewEngine(m *model.Model, p exitsim.Profile) *Engine {
	return &Engine{Model: m, Profile: p, MaxConcurrent: 8, FlushCount: 8}
}

// batchFactor is the decode-step slowdown at the saturated batch size.
func (e *Engine) batchFactor() float64 {
	return 1 + e.Model.BatchBeta*float64(e.MaxConcurrent-1)
}

// stepMS is the full decode-step latency at saturation.
func (e *Engine) stepMS() float64 { return e.Model.BaseLatencyMS * e.batchFactor() }

// prefillMS estimates prompt processing time: parallel over prompt
// tokens, far cheaper per token than decoding.
func (e *Engine) prefillMS(promptLen int) float64 {
	return e.Model.BaseLatencyMS * (0.5 + float64(promptLen)/512)
}

// decodeSequence simulates one sequence under the policy, appending the
// per-token results to tokens and returning them with the total decode
// duration. tokens is grown to GenLen up front, so a caller's reused
// buffer reallocates only when a longer sequence arrives.
func (e *Engine) decodeSequence(req workload.GenRequest, pol Policy, tokens []TokenResult) ([]TokenResult, float64) {
	// VanillaGen ignores its sample, so its tokens decide on the zero
	// sample and draw nothing. The sampler is seeded per sequence from
	// req.SeqSeed, so skipping it moves no other random stream. Only the
	// exact type qualifies: a wrapping policy may read its samples.
	var sampler *workload.TokenSampler
	if _, vanilla := pol.(VanillaGen); !vanilla {
		sampler = workload.NewTokenSampler(req)
	}
	step := e.stepMS()
	tokens = slices.Grow(tokens, req.GenLen)
	pending := 0 // exited tokens awaiting their remaining layers
	var pendingDepth float64
	total := 0.0
	for i := 0; i < req.GenLen; i++ {
		var s exitsim.Sample
		if sampler != nil {
			s = sampler.Next()
		}
		exit, depth, ohFrac, match := pol.Decide(s)
		var tpt float64
		if exit {
			// Result released at the ramp; remaining layers deferred. The
			// eventual catch-up/flush must run every pending token's
			// remaining layers, so its cost is bounded by the
			// deepest-exiting (minimum-depth) member of the batch, not
			// whichever token exited last.
			tpt = depth*step + ohFrac*step
			if pending == 0 || depth < pendingDepth {
				pendingDepth = depth
			}
			pending++
			if pending >= e.FlushCount {
				// Standalone flush: remaining layers for the batch of
				// pending tokens run now, delaying the next token.
				tpt += (1 - pendingDepth) * step * (1 + e.Model.BatchBeta*float64(pending-1)) / float64(pending)
				pending = 0
				pol.ObserveFlush()
			}
		} else {
			// Full pass, catching up the pending tokens' remaining
			// layers batched alongside (mild penalty, §3.4).
			catchup := 0.0
			if pending > 0 {
				catchup = (1 - pendingDepth) * step * e.Model.BatchBeta * float64(pending)
				pending = 0
				pol.ObserveFlush()
			}
			tpt = step + ohFrac*step + catchup
		}
		tokens = append(tokens, TokenResult{TPTms: tpt, Exited: exit, Match: match})
		total += tpt
	}
	if pending > 0 {
		// Trailing pending tokens still owe their remaining layers: a
		// standalone flush runs them batched after the last token, so the
		// sequence occupies its slot (and delays its completion) for that
		// long. No token's TPT moves — every result was already released
		// at its ramp — but the decode duration must include it.
		total += (1 - pendingDepth) * step * (1 + e.Model.BatchBeta*float64(pending-1))
		pol.ObserveFlush()
	}
	return tokens, total
}

// Event classes on the shared engine loop: sequence arrivals rank
// before slot completions at the same instant, so a sequence arriving
// exactly as a slot frees starts in it without waiting.
const (
	classArrival engine.Class = iota
	classSlotFree
)

// genSim runs one generative simulation on the shared discrete-event
// engine: the decode-slot pool is a set of completion events on the
// engine clock (the old standalone slot-completion heap, migrated), and
// sequences are admitted FIFO — one request of lookahead, so memory
// stays bounded by the slot count regardless of stream length.
type genSim struct {
	e    *Engine
	pol  Policy
	loop *engine.Loop
	it   *workload.GenIter

	next workload.GenRequest
	has  bool
	free int // idle decode slots
	// armAt is the earliest pending arrival event (+Inf when none): a
	// slot-free callback must not re-arm an arrival that is already
	// scheduled, or pending events would grow with the stream instead
	// of staying bounded by the slot count.
	armAt float64

	// tokens is the decode buffer every sequence reuses: admit folds a
	// sequence's tokens into the aggregates before the next one decodes.
	tokens []TokenResult

	stats        *Stats
	sumRate      float64
	sumScore     float64
	firstArrival float64
	lastDone     float64

	// Observability sinks and the per-slot occupancy table behind them.
	// The table exists only when a sink is attached (slots == nil
	// otherwise), so untraced runs allocate nothing and completion
	// events carry arg 0 exactly as before — arg never affects event
	// ordering, so traced runs stay outcome-identical too.
	tr     *obs.Tracer
	tl     *obs.Timeline
	slots  []genSlot
	snapFn func(float64) obs.Gauges
}

// genSlot is one decode slot's occupant, tracked only under observation.
type genSlot struct {
	req  workload.GenRequest
	at   float64 // admission instant
	busy bool
}

// Engine-event op codes dispatched to genSim.OnEvent.
const (
	opPump     uint8 = iota // an arrival instant: admit what fits
	opSlotFree              // a sequence finished: free its slot, pump
)

// OnEvent dispatches engine events; genSim is its own pre-bound
// handler, so arming an arrival or a slot completion never allocates.
// Under observation the completion arg carries the slot index.
func (g *genSim) OnEvent(now float64, op uint8, arg uint64) {
	if op == opSlotFree {
		g.free++
		if g.slots != nil {
			g.slotDone(now, int(arg))
		}
	}
	g.pump(now)
}

// claimSlot records the sequence in the lowest free slot and emits its
// arrival/admission events. The classic path has no standing admission
// queue — the single pending request admits as soon as a slot frees — so
// seq_arrive and kv_admit emit together at the admission instant, the
// admission's wait carried in kv_admit's DurMS.
func (g *genSim) claimSlot(req workload.GenRequest, now float64) int {
	slot := 0
	for g.slots[slot].busy {
		slot++
	}
	g.slots[slot] = genSlot{req: req, at: now, busy: true}
	if g.tr != nil {
		e := obs.At(now, obs.KindSeqArrive)
		e.Req = req.ID
		e.Val = req.PromptLen
		g.tr.Emit(e)
		e = obs.At(now, obs.KindKVAdmit)
		e.Req = req.ID
		e.Replica = slot
		e.DurMS = now - req.ArrivalMS
		g.tr.Emit(e)
	}
	return slot
}

// slotDone retires the observed slot's occupant: a seq_complete event on
// the slot's track and a timeline window observation.
func (g *genSim) slotDone(now float64, slot int) {
	s := &g.slots[slot]
	s.busy = false
	if g.tr != nil {
		e := obs.At(now, obs.KindSeqComplete)
		e.Req = s.req.ID
		e.Replica = slot
		e.DurMS = now - s.at
		e.LatMS = now - s.req.ArrivalMS
		g.tr.Emit(e)
	}
	if g.tl != nil {
		g.tl.Observe(now-s.req.ArrivalMS, false)
	}
}

// Start schedules the first arrival; genSim is an engine.Process.
func (g *genSim) Start(l *engine.Loop) {
	if g.has {
		g.armAt = g.next.ArrivalMS
		l.Schedule(g.next.ArrivalMS, classArrival, g, opPump, 0)
	}
}

// pump admits the pending sequence whenever a slot is free and its
// arrival has come, then lines up the next arrival event. Admissions are
// strictly FIFO: the next request is not pulled until the current one
// holds a slot, which both preserves arrival-order semantics and keeps
// the lookahead at one request.
func (g *genSim) pump(now float64) {
	if now >= g.armAt {
		g.armAt = math.Inf(1)
	}
	for g.has && g.next.ArrivalMS <= now && g.free > 0 {
		req := g.next
		if r, ok := g.it.Next(); ok {
			g.next = r
		} else {
			g.next, g.has = workload.GenRequest{}, false
		}
		g.admit(req, now)
	}
	if g.has && g.next.ArrivalMS > now && g.next.ArrivalMS < g.armAt {
		g.armAt = g.next.ArrivalMS
		g.loop.Schedule(g.next.ArrivalMS, classArrival, g, opPump, 0)
	}
}

// admit starts one sequence in a free slot at time now and schedules the
// slot's completion on the engine clock.
func (g *genSim) admit(req workload.GenRequest, now float64) {
	if g.stats.Seqs == 0 {
		g.firstArrival = req.ArrivalMS
	}
	g.free--
	var arg uint64
	if g.slots != nil {
		arg = uint64(g.claimSlot(req, now))
	}
	tokens, decodeMS := g.e.decodeSequence(req, g.pol, g.tokens[:0])
	g.tokens = tokens
	done := now + g.e.prefillMS(req.PromptLen) + decodeMS
	g.loop.Schedule(done, classSlotFree, g, opSlotFree, arg)
	match := 0
	for _, tk := range tokens {
		if tk.Match {
			match++
		}
		g.stats.TPTRec.Add(tk.TPTms)
	}
	rate := 1.0
	if len(tokens) > 0 {
		rate = float64(match) / float64(len(tokens))
	}
	g.sumRate += rate
	g.sumScore += ScoreFromMatchRate(rate)
	g.stats.Seqs++
	g.stats.TotalTokens += len(tokens)
	if done > g.lastDone {
		g.lastDone = done
	}
	if g.e.OnSeq != nil {
		g.e.OnSeq(SeqResult{
			Request: req, StartMS: now, DoneMS: done,
			Tokens: slices.Clone(tokens), MatchRate: rate,
		})
	}
}

// newStats returns a run's empty Stats. An exact TPT recorder is sized
// to the stream's total generation length, so it never regrows; a
// sketch needs no size, and the stream is not walked for one.
func (e *Engine) newStats(stream *workload.GenStream) *Stats {
	capacity := 0
	if e.Metrics == metrics.ModeExact {
		capacity = stream.Tokens()
	}
	return &Stats{TPTRec: metrics.NewRecorder(e.Metrics, capacity)}
}

// Run serves the generative stream with the policy on the shared
// discrete-event engine. A sequence starts at max(its arrival, the
// earliest slot-free time) — when no slot is idle at arrival, the
// admission waits for the next completion event, which is exactly the
// earliest-free-slot rule the standalone heap implemented. When any KV
// knob is set (KVBlocks / PrefixHitRatio / PrefillChunkTokens) the
// KV-block memory runtime takes over; with all of them zero this path
// is byte-identical to the pre-KV engine.
func (e *Engine) Run(stream *workload.GenStream, pol Policy) *Stats {
	if e.kvActive() {
		return e.runKV(stream, pol)
	}
	g := &genSim{
		e:     e,
		pol:   pol,
		loop:  engine.New(),
		it:    stream.Iter(),
		free:  e.MaxConcurrent,
		armAt: math.Inf(1),
		stats: e.newStats(stream),
	}
	if r, ok := g.it.Next(); ok {
		g.next, g.has = r, true
	}
	if e.Trace != nil || e.Timeline != nil {
		g.tr, g.tl = e.Trace, e.Timeline
		g.slots = make([]genSlot, e.MaxConcurrent)
	}
	if g.tl != nil {
		// Sample from the advance hook, never from tick events on the
		// heap — the clock must not move for the sampler's sake (same
		// rule as the cluster path).
		g.tl.Gen = true
		g.snapFn = func(tMS float64) obs.Gauges {
			queued := 0
			if g.has && g.next.ArrivalMS <= tMS {
				queued = 1
			}
			return obs.Gauges{Running: e.MaxConcurrent - g.free, Queued: queued}
		}
		g.loop.OnAdvance(func(prev, now float64) { g.tl.CatchUp(now, g.snapFn) })
	}
	g.loop.Add(g)
	g.loop.Run()
	if g.tl != nil && g.stats.Seqs > 0 {
		g.tl.Finish(g.loop.Now(), g.snapFn)
	}
	if g.stats.Seqs > 0 {
		g.stats.MeanMatchRate = g.sumRate / float64(g.stats.Seqs)
		g.stats.MeanScore = g.sumScore / float64(g.stats.Seqs)
		if span := g.lastDone - g.firstArrival; span > 0 {
			g.stats.TokensPerSec = float64(g.stats.TotalTokens) / span * 1000
		}
	}
	return g.stats
}
