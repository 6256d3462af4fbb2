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
// discrete-event core (internal/engine): arrivals, prefill chunks and
// decode stretches are events on the same kind of clock that drives the
// cluster simulator. One runtime serves every run; the KV knobs bound
// its block pool, add a prefix cache and chunk prefill. A sequence
// waits for admission as a value entry in the queue. Its runtime state
// exists from admission to completion, and is then reused, token buffer
// included, by a later sequence. What grows is the backlog and the
// recorder: a sketch is O(1), but exact mode keeps every token's TPT,
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

	// Admission and KV-block activity. QueueMS is the mean per-sequence
	// admission-queue wait, including re-queues after preemption; every
	// run reports it. The others stay zero unless their knob is set on
	// the Engine: KVUtil is the time-averaged fraction of a bounded KV
	// pool (KVBlocks) in use over the makespan, Preemptions counts its
	// preempt-and-requeue events, and PrefixHits counts sequences whose
	// prompt prefix hit the cache (PrefixHitRatio).
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
	// preempts + requeues the youngest running sequence. 0 = unbounded:
	// admission waits for a free decode slot alone.
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
// before milestones at the same instant, so a sequence arriving exactly
// as a slot frees is queued in time to take it without waiting.
const (
	classArrival engine.Class = iota
	classMilestone
)

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
// discrete-event engine. Admission is FIFO: a sequence starts once a
// decode slot is free and, when KVBlocks bounds the pool, its working
// set fits. With no KV knob set (KVBlocks, PrefixHitRatio,
// PrefillChunkTokens) that is the KV-block runtime with an unbounded
// pool, no prefix cache and monolithic prefill, so a sequence starts at
// max(its arrival, the earliest slot-free time).
func (e *Engine) Run(stream *workload.GenStream, pol Policy) *Stats {
	k := e.newKVSim(stream, pol)
	k.loop.Run()
	return k.finish()
}
