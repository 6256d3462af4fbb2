package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/controller"
	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario is one fully specified serving experiment: a model, a
// workload, a platform configuration, and Apparate's parameters.
// RunScenario serves it, classification or generative, for every
// caller: apparate-serve (one scenario), apparate-sweep (a grid of
// them), the examples, and the tests. Every field is a plain value so a
// Scenario can be hashed, filtered, and serialized.
type Scenario struct {
	Model    string `json:"model"`
	Workload string `json:"workload"`
	// Platform is "clockwork" or "tf-serve" (classification only).
	Platform string `json:"platform"`
	// Dispatch is "round-robin", "least-loaded" or
	// "join-shortest-queue"; it only matters when Replicas > 1.
	Dispatch string `json:"dispatch"`
	// Replicas is the cluster width (default 1). Every width runs on the
	// same cluster runtime.
	Replicas int `json:"replicas"`
	// N is the request count (sequences for generative workloads).
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
	// RateMult scales the workload's native arrival rate (video frame
	// rate, trace-derived NLP QPS, or generative sequence rate).
	RateMult float64 `json:"rate_mult"`
	// RampBudget and AccLoss are Apparate's two user-facing parameters.
	RampBudget float64 `json:"ramp_budget"`
	AccLoss    float64 `json:"acc_loss"`
	// ExitRule optionally overrides the exit strategy ("entropy",
	// "windowed-K", "patience-P").
	ExitRule string `json:"exit_rule,omitempty"`
	// GenSlots and GenFlush override the generative engine's
	// continuous-batching slot count and pending-token flush threshold
	// (0 = engine defaults; generative workloads only).
	GenSlots int `json:"gen_slots,omitempty"`
	GenFlush int `json:"gen_flush,omitempty"`
	// KVBlocks, BlockTokens, PrefixHit, and PrefillChunk configure the
	// generative engine's KV-block memory runtime (generative workloads
	// only; all identity-omitted when unset so pre-KV seeds and golden
	// rows never shift). KVBlocks bounds the per-engine KV pool — a
	// sequence holds ⌈(prompt+generated)/BlockTokens⌉ blocks to run,
	// admission blocks FIFO when the pool is exhausted, and overflow
	// preempts + requeues the youngest running sequence (0 = unbounded).
	// BlockTokens sets tokens per block (0 = the engine default of 16;
	// meaningful only with a pool). PrefixHit is the prefix-cache hit
	// probability in [0,1] — hits skip prompt prefill, drawing only from
	// the dedicated "gen.prefix" labeled stream. PrefillChunk chunks
	// prompts longer than the threshold so prefill interleaves with
	// decode on the engine clock (0 = monolithic).
	KVBlocks     int     `json:"kv_blocks,omitempty"`
	BlockTokens  int     `json:"block_tokens,omitempty"`
	PrefixHit    float64 `json:"prefix_hit,omitempty"`
	PrefillChunk int     `json:"prefill_chunk,omitempty"`
	// Metrics selects the latency recorder: "exact" (default) keeps
	// every sample for exact percentiles; "sketch" streams samples into
	// a bounded-memory quantile sketch (~0.5% percentile error) so
	// million-request scenarios run in O(1) memory.
	Metrics string `json:"metrics,omitempty"`
	// RateSchedule makes the arrival rate time-varying: a trace.Schedule
	// spec ("phases:10x1/10x4", "sine:60/0.5/2", "square:30/0.5/4")
	// whose multipliers apply on top of the native rate × RateMult.
	// Empty keeps the workload's stationary arrival process.
	// Classification workloads only; generative scenarios clear it.
	RateSchedule string `json:"rate_schedule,omitempty"`
	// Autoscale replaces the fixed Replicas count with a reactive
	// replica autoscaler: an autoscale spec such as "1..4" or
	// "1..4/window=2000/cool=6000". When set, Replicas is canonicalized
	// to the autoscaler's min (the starting width); the cluster then
	// adds and retires replicas mid-run on windowed backlog and
	// p99-vs-SLO signals. Classification workloads only.
	Autoscale string `json:"autoscale,omitempty"`
	// Hetero makes the cluster heterogeneous: comma-separated positive
	// speed factors cycled over replica indexes ("1,0.5" makes every
	// odd replica half as fast). Dispatch policies see the scaled
	// service times, so least-loaded shifts traffic toward the fast
	// replicas. Cluster scenarios only (Replicas > 1 or Autoscale);
	// single-replica scenarios clear it.
	Hetero string `json:"hetero,omitempty"`
	// Faults injects the deterministic fault model: a faults.Spec string
	// such as "crash:r1@2000+500;delaydist=lognormal:5,1;loss=0.001"
	// describing replica crash/restart schedules (one-shot and periodic
	// MTBF/MTTR), dispatcher→replica network delay distributions, and
	// request-level transit loss. Fault randomness draws from rng
	// streams labeled off the scenario seed, so the base scenario's
	// arrival and service draws are unchanged. Empty (the default) is a
	// perfectly reliable cluster — pre-fault behavior, byte for byte.
	// Classification workloads only.
	Faults string `json:"faults,omitempty"`
	// Retry is the dispatcher's retry/hedging policy: a faults.Retry
	// spec such as "attempts=3" or "attempts=2/hedge=95" (bounded
	// re-dispatch attempts, duplicate dispatch after a latency-quantile
	// deadline, failed-replica exclusion). Empty dispatches each request
	// exactly once. Classification workloads only.
	Retry string `json:"retry,omitempty"`
	// Trace records the Apparate run's full request lifecycle (arrival,
	// dispatch, queueing, service, completion, and every fault-path
	// event) into an obs.Tracer, which RunScenarioTo streams as JSONL,
	// as Chrome trace-event JSON or as both. Timeline additionally
	// samples cluster gauges every ObsTickMS virtual milliseconds (0 =
	// obs.DefaultTickMS) into an obs.Timeline.
	// Observability knobs never enter Identity — attaching a tracer
	// must not shift a scenario's derived seed or any simulated
	// outcome. Generative scenarios trace sequence lifecycles
	// (seq_arrive … seq_complete) and sample KV-pool gauges instead of
	// cluster gauges.
	Trace     bool    `json:"trace,omitempty"`
	Timeline  bool    `json:"timeline,omitempty"`
	ObsTickMS float64 `json:"obs_tick_ms,omitempty"`
}

// Normalize fills defaults and canonicalizes axes that a scenario class
// ignores, so equivalent scenarios compare equal: generative serving has
// no platform batching policy, dispatch, or replica axis, and dispatch
// is meaningless below two replicas.
func (sc Scenario) Normalize() Scenario {
	if sc.Platform == "" {
		sc.Platform = "clockwork"
	}
	if sc.Dispatch == "" {
		sc.Dispatch = "round-robin"
	}
	if sc.Replicas <= 0 {
		sc.Replicas = 1
	}
	if sc.RateMult == 0 {
		sc.RateMult = 1
	}
	if sc.RampBudget == 0 {
		sc.RampBudget = 0.02
	}
	if sc.AccLoss == 0 {
		sc.AccLoss = 0.01
	}
	if workload.IsGenerative(sc.Workload) {
		sc.Platform = "clockwork"
		sc.Dispatch = "round-robin"
		sc.Replicas = 1
		sc.RateSchedule = ""
		sc.Autoscale = ""
		sc.Hetero = ""
		sc.Faults = ""
		sc.Retry = ""
	} else {
		sc.GenSlots, sc.GenFlush = 0, 0
		sc.KVBlocks, sc.BlockTokens, sc.PrefixHit, sc.PrefillChunk = 0, 0, 0, 0
	}
	if sc.KVBlocks == 0 {
		// Block granularity only means something once a pool bounds it.
		sc.BlockTokens = 0
	}
	if sc.Autoscale != "" {
		// The autoscaler owns the replica axis: runs start at its min
		// width, and dispatch stays meaningful because the cluster can
		// grow past one replica.
		if cfg, err := autoscale.Parse(sc.Autoscale); err == nil {
			sc.Replicas = cfg.Min
		}
	} else if sc.Replicas == 1 {
		// Dispatch and heterogeneity are meaningless below two replicas.
		sc.Dispatch = "round-robin"
		sc.Hetero = ""
	}
	if sc.Hetero != "" {
		// Canonicalize the spec ("1.0, 0.50" and "1,0.5" are the same
		// cluster) so equivalent scenarios share an identity and a seed.
		if speeds, err := serving.ParseSpeeds(sc.Hetero); err == nil {
			sc.Hetero = serving.FormatSpeeds(speeds)
		}
	}
	if sc.Faults != "" {
		// Same canonicalization story: clause order never distinguishes
		// two fault models, so it must not distinguish two scenarios.
		if fs, err := faults.Parse(sc.Faults); err == nil {
			sc.Faults = fs.String()
		}
	}
	if sc.Retry != "" {
		if rp, err := faults.ParseRetry(sc.Retry); err == nil {
			sc.Retry = rp.String()
		}
	}
	if sc.Metrics == "" {
		sc.Metrics = "exact"
	}
	if !sc.Timeline {
		// The tick only means something when the sampler exists.
		sc.ObsTickMS = 0
	}
	return sc
}

// Generative reports whether the scenario drives the generative path.
func (sc Scenario) Generative() bool { return workload.IsGenerative(sc.Workload) }

// Identity is the scenario's stable key over every axis except the seed:
// it names a point in the sweep grid, and per-scenario seeds are derived
// from it so results do not depend on grid enumeration order.
func (sc Scenario) Identity() string {
	sc = sc.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s workload=%s platform=%s dispatch=%s replicas=%d n=%d rate=%g budget=%g accloss=%g",
		sc.Model, sc.Workload, sc.Platform, sc.Dispatch, sc.Replicas, sc.N, sc.RateMult, sc.RampBudget, sc.AccLoss)
	if sc.ExitRule != "" {
		fmt.Fprintf(&b, " rule=%s", sc.ExitRule)
	}
	if sc.GenSlots != 0 {
		fmt.Fprintf(&b, " slots=%d", sc.GenSlots)
	}
	if sc.GenFlush != 0 {
		fmt.Fprintf(&b, " flush=%d", sc.GenFlush)
	}
	if sc.KVBlocks != 0 {
		fmt.Fprintf(&b, " kv=%d", sc.KVBlocks)
	}
	if sc.BlockTokens != 0 {
		fmt.Fprintf(&b, " blocktok=%d", sc.BlockTokens)
	}
	if sc.PrefixHit != 0 {
		fmt.Fprintf(&b, " prefixhit=%g", sc.PrefixHit)
	}
	if sc.PrefillChunk != 0 {
		fmt.Fprintf(&b, " prefillchunk=%d", sc.PrefillChunk)
	}
	// Like the metrics axis below, schedule and autoscale are omitted
	// when unset so pre-existing scenario identities (and the seeds
	// derived from them) are unchanged.
	if sc.RateSchedule != "" {
		fmt.Fprintf(&b, " schedule=%s", sc.RateSchedule)
	}
	if sc.Autoscale != "" {
		fmt.Fprintf(&b, " autoscale=%s", sc.Autoscale)
	}
	if sc.Hetero != "" {
		fmt.Fprintf(&b, " hetero=%s", sc.Hetero)
	}
	if sc.Faults != "" {
		fmt.Fprintf(&b, " faults=%s", sc.Faults)
	}
	if sc.Retry != "" {
		fmt.Fprintf(&b, " retry=%s", sc.Retry)
	}
	// The exact default is omitted so pre-existing scenario identities
	// (and the seeds derived from them) are unchanged.
	if sc.Metrics != "" && sc.Metrics != "exact" {
		fmt.Fprintf(&b, " metrics=%s", sc.Metrics)
	}
	return b.String()
}

// Key is Identity plus the seed — the scenario's full identity.
func (sc Scenario) Key() string {
	return fmt.Sprintf("%s seed=%d", sc.Identity(), sc.Seed)
}

// RunSummary condenses one serving run (vanilla or Apparate) of a
// scenario. For classification, latencies are per-request response
// latencies, Accuracy is agreement with the original model, and
// Throughput counts delivered requests per second. For generative
// serving, latencies are per-token TPT, Accuracy is the ROUGE-L/F1
// sequence-score proxy, and Throughput counts generated tokens per
// second.
type RunSummary struct {
	P25ms  float64 `json:"p25_ms"`
	P50ms  float64 `json:"p50_ms"`
	P95ms  float64 `json:"p95_ms"`
	P99ms  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`

	Accuracy    float64 `json:"accuracy"`
	Throughput  float64 `json:"throughput"`
	DropRate    float64 `json:"drop_rate"`
	SLOMissRate float64 `json:"slo_miss_rate"`
	// Goodput counts only delivered requests that met the SLO, per
	// second — the availability metric degraded-mode studies rank by
	// (0 for generative serving, which has no per-request SLO).
	Goodput float64 `json:"goodput"`
}

func summaryFromDist(d metrics.Recorder) RunSummary {
	return RunSummary{
		P25ms:  d.Percentile(25),
		P50ms:  d.Percentile(50),
		P95ms:  d.Percentile(95),
		P99ms:  d.Percentile(99),
		MeanMS: d.Mean(),
	}
}

// Result is the outcome of one scenario: the vanilla baseline, the
// Apparate run, their deltas, and the adaptation activity.
type Result struct {
	Scenario   Scenario `json:"scenario"`
	Generative bool     `json:"generative"`
	// SLOms is the per-request latency objective (0 for generative).
	SLOms float64 `json:"slo_ms"`
	// Requests is the number of requests (or sequences) served.
	Requests int `json:"requests"`

	Vanilla  RunSummary `json:"vanilla"`
	Apparate RunSummary `json:"apparate"`

	// P50Win / P95Win / P99Win are Apparate's latency wins over vanilla
	// at those percentiles, in percent (positive = faster).
	P50Win float64 `json:"p50_win_pct"`
	P95Win float64 `json:"p95_win_pct"`
	P99Win float64 `json:"p99_win_pct"`
	// AccDelta is vanilla accuracy minus Apparate accuracy — the realized
	// accuracy loss the AccLoss constraint bounds.
	AccDelta float64 `json:"acc_delta"`

	// Adaptation activity, summed across replicas.
	TuneRounds   int `json:"tune_rounds"`
	AdjustRounds int `json:"adjust_rounds"`
	ActiveRamps  int `json:"active_ramps"`

	// Autoscaling activity of the Apparate run (autoscale scenarios
	// only): committed scale-up/down actions and the widest the cluster
	// ever grew.
	ScaleUps     int `json:"scale_ups,omitempty"`
	ScaleDowns   int `json:"scale_downs,omitempty"`
	PeakReplicas int `json:"peak_replicas,omitempty"`

	// Availability under the injected fault model, from the Apparate
	// run (fault/retry scenarios only): realized crashes, requests lost
	// in transit, re-dispatches, hedge duplicates, summed per-replica
	// downtime, and total zero-live-replica time.
	Crashes    int     `json:"crashes,omitempty"`
	Lost       int     `json:"lost,omitempty"`
	Retries    int     `json:"retries,omitempty"`
	Hedges     int     `json:"hedges,omitempty"`
	DowntimeMS float64 `json:"downtime_ms,omitempty"`
	UnavailMS  float64 `json:"unavail_ms,omitempty"`

	// KV-block runtime activity of the Apparate run (generative KV
	// scenarios only): time-averaged pool utilization, prefix-cache
	// hits, preempt-and-requeue events, and mean per-sequence
	// admission-queue wait.
	KVUtil      float64 `json:"kv_util,omitempty"`
	PrefixHits  int     `json:"prefix_hits,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`
	QueueMS     float64 `json:"queue_ms,omitempty"`
}

// Validate checks the scenario without running it: the model exists, the
// model/workload pairing matches the paper's corpus (CV models serve
// video, NLP classifiers serve review streams, generative models serve
// sequence workloads), and every enum parses.
func (sc Scenario) Validate() error {
	// Check the caller's raw enum values before Normalize canonicalizes
	// axes away (a bad dispatch must error even at one replica).
	if sc.Platform != "" {
		if _, err := serving.ParsePlatform(sc.Platform); err != nil {
			return err
		}
	}
	if sc.Dispatch != "" {
		if _, err := serving.ParseDispatch(sc.Dispatch); err != nil {
			return err
		}
	}
	if _, err := metrics.ParseMode(sc.Metrics); err != nil {
		return err
	}
	if _, err := trace.ParseSchedule(sc.RateSchedule); err != nil {
		return err
	}
	if _, err := autoscale.Parse(sc.Autoscale); err != nil {
		return err
	}
	if _, err := serving.ParseSpeeds(sc.Hetero); err != nil {
		return err
	}
	if _, err := faults.Parse(sc.Faults); err != nil {
		return err
	}
	if _, err := faults.ParseRetry(sc.Retry); err != nil {
		return err
	}
	if err := CheckReplicas(sc.Replicas); err != nil {
		return err
	}
	sc = sc.Normalize()
	m, err := model.ByName(sc.Model)
	if err != nil {
		return err
	}
	if err := CheckWorkload(sc.Workload); err != nil {
		return err
	}
	if err := CheckPairing(m, sc.Workload); err != nil {
		return err
	}
	if sc.ExitRule != "" {
		if _, err := exitrule.ByName(sc.ExitRule); err != nil {
			return err
		}
	}
	if sc.N <= 0 {
		return fmt.Errorf("scenario: request count %d must be positive", sc.N)
	}
	// The negated comparisons below also reject NaN, which compares
	// false to everything; a NaN or infinite rate hangs the arrival
	// source.
	if !(sc.RateMult > 0) || math.IsInf(sc.RateMult, 0) {
		return fmt.Errorf("scenario: rate multiplier %g must be positive and finite", sc.RateMult)
	}
	// A ramp budget is a fraction of the model's latency, as AccLoss is
	// of its accuracy. resnet50 already deploys every ramp site at 0.1,
	// so a budget above 1 could only mislead.
	if !(sc.RampBudget > 0 && sc.RampBudget <= 1) {
		return fmt.Errorf("scenario: ramp budget %g must be a fraction in (0,1]", sc.RampBudget)
	}
	// A classification budget that cannot hold one ramp deploys none, and
	// the controller's recovery sentinel would not fit either. The test
	// is the ramp package's own, on an empty active set.
	if !sc.Generative() && !(&ramp.Config{BudgetFrac: sc.RampBudget}).WithinBudget(ramp.StyleDefault) {
		return fmt.Errorf("scenario: ramp budget %g fits no ramp: a classification budget must be at least %g, one %s ramp",
			sc.RampBudget, ramp.StyleDefault.OverheadFrac, ramp.StyleDefault.Name)
	}
	// An accuracy budget is a fraction of the original model's accuracy;
	// generative runs would silently cap one above 1 in TokenBudget.
	if !(sc.AccLoss >= 0 && sc.AccLoss <= 1) {
		return fmt.Errorf("scenario: accuracy-loss constraint %g must be a fraction in [0,1]", sc.AccLoss)
	}
	if sc.GenSlots < 0 || sc.GenFlush < 0 {
		return fmt.Errorf("scenario: gen slots/flush must be non-negative (got %d/%d)", sc.GenSlots, sc.GenFlush)
	}
	if sc.KVBlocks < 0 || sc.BlockTokens < 0 || sc.PrefillChunk < 0 {
		return fmt.Errorf("scenario: kv blocks/block tokens/prefill chunk must be non-negative (got %d/%d/%d)",
			sc.KVBlocks, sc.BlockTokens, sc.PrefillChunk)
	}
	if !(sc.PrefixHit >= 0) || sc.PrefixHit > 1 {
		return fmt.Errorf("scenario: prefix-hit ratio %g must be in [0,1]", sc.PrefixHit)
	}
	if !(sc.ObsTickMS >= 0) || math.IsInf(sc.ObsTickMS, 0) {
		return fmt.Errorf("scenario: observability tick %g must be non-negative and finite", sc.ObsTickMS)
	}
	// Finite but extreme rates, windows and ticks stall a run without
	// failing it: arrival sources buffer and sort a simulated second at
	// a time, the autoscaler closes one signal window at a time, and the
	// timeline writes one row per tick. Bound each by the work it
	// implies.
	qps, mean, peak := sc.arrivalQPS(m), 1.0, 1.0
	if sched, _ := trace.ParseSchedule(sc.RateSchedule); sched != nil {
		mean, peak = sched.MeanMult(), sched.PeakMult()
	}
	if !(qps*peak <= trace.MaxQPS) {
		return fmt.Errorf("scenario: peak arrival rate %.3g req/s exceeds the %g req/s limit", qps*peak, float64(trace.MaxQPS))
	}
	runSec := float64(sc.N) / (qps * mean)
	if !(runSec <= trace.MaxRunSec) {
		return fmt.Errorf("scenario: %d requests at %.3g req/s span %.3g simulated seconds, above the %g s limit", sc.N, qps*mean, runSec, float64(trace.MaxRunSec))
	}
	if sc.Autoscale != "" {
		cfg, _ := autoscale.Parse(sc.Autoscale)
		if err := cfg.CheckRun(runSec * 1000); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if sc.Timeline {
		if err := obs.CheckRun(sc.ObsTickMS, runSec*1000); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if fs, _ := faults.Parse(sc.Faults); fs != nil {
		// A clause naming a replica the cluster can never materialize
		// would silently inject nothing — a reliable run masquerading as
		// a chaos result — so reject it here.
		width := sc.Replicas
		if sc.Autoscale != "" {
			if cfg, err := autoscale.Parse(sc.Autoscale); err == nil {
				width = cfg.Max
			}
		}
		if max := fs.MaxReplica(); max >= width {
			return fmt.Errorf("scenario: faults spec names replica r%d but the cluster realizes at most %d replicas", max, width)
		}
	}
	return nil
}

// CheckWorkload reports an error unless wl names a workload, spelt as
// workload.Names or workload.GenNames lists it. Validate and the sweep's
// grid expansion share it, so a misspelt name fails wherever it appears
// instead of passing for a workload some model cannot serve.
func CheckWorkload(wl string) error {
	if !slices.Contains(workload.Names(), wl) && !slices.Contains(workload.GenNames(), wl) {
		return fmt.Errorf("scenario: unknown workload %q", wl)
	}
	return nil
}

// CheckReplicas reports an error for a negative replica count; only 0
// means unset (one replica). Validate and the sweep's grid expansion
// share it, and both call it before Normalize, which turns any count
// below one into one and sets a generative scenario's to one.
func CheckReplicas(n int) error {
	if n < 0 {
		return fmt.Errorf("scenario: replica count %d must be non-negative (0 = one replica)", n)
	}
	return nil
}

// CheckPairing reports why model m cannot serve the named workload
// under the paper's corpus pairing, or nil when it can: generative
// models serve only the sequence workloads, CV models only the videos,
// and NLP classifiers every other classification workload. Validate
// and the sweep's grid expansion share it.
func CheckPairing(m *model.Model, wl string) error {
	switch {
	case workload.IsGenerative(wl) && !m.Generative:
		return fmt.Errorf("scenario: model %s is not generative; cannot serve %s", m.Name, wl)
	case !workload.IsGenerative(wl) && m.Generative:
		return fmt.Errorf("scenario: generative model %s cannot serve classification workload %s", m.Name, wl)
	case workload.IsVideo(wl) && !m.Family.IsCV():
		return fmt.Errorf("scenario: non-CV model %s cannot serve video workload %s", m.Name, wl)
	case !workload.IsVideo(wl) && m.Family.IsCV():
		return fmt.Errorf("scenario: CV model %s cannot serve NLP workload %s", m.Name, wl)
	}
	return nil
}

// arrivalQPS is the normalized scenario's mean arrival rate before any
// rate schedule applies.
func (sc Scenario) arrivalQPS(m *model.Model) float64 {
	switch {
	case sc.Generative():
		return 2 * sc.RateMult
	case workload.IsVideo(sc.Workload):
		return 30 * sc.RateMult // video frame rate
	}
	// The trace-derived sustainable rate scales with cluster width: R
	// replicas absorb R times the single-replica rate. Autoscaled
	// scenarios size the rate for the min width, so schedule bursts are
	// what force the cluster to grow.
	return trace.TargetQPS(m) * sc.RateMult * float64(sc.Replicas)
}

// RunScenario executes one scenario end to end: vanilla baseline plus
// the Apparate run on the same stream, single-replica or cluster,
// classification or generative. It is deterministic: the same Scenario
// always yields an identical Result, with no shared state between calls,
// so scenarios are safe to run concurrently.
func RunScenario(sc Scenario) (*Result, error) {
	res, _, err := run(sc, noSinks)
	return res, err
}

// ObsData is the observability output of a traced scenario run: the
// lifecycle trace and/or gauge timeline of the Apparate run, per the
// scenario's Trace/Timeline knobs. Unrequested sinks are nil.
type ObsData struct {
	Trace    *obs.Tracer
	Timeline *obs.Timeline
}

// openSinks builds the Apparate run's observability sinks for the
// normalized scenario, once the run knows the timeline's goodput SLO.
// The tests build buffered sinks through it, as the reference the
// streamed bytes are checked against.
type openSinks func(sc Scenario, sloMS float64) ObsData

// noSinks builds none: an untraced run.
func noSinks(Scenario, float64) ObsData { return ObsData{} }

// RunScenarioTo runs the scenario like RunScenario and streams the
// observability output of its Apparate run while the run goes: the
// lifecycle trace as JSONL into traceW and as Chrome trace-event JSON
// into chromeW, and the gauge timeline as CSV into timelineW. Only the
// Apparate run is traced — the trace answers "what did Apparate's
// cluster do", and interleaving the vanilla baseline into the same file
// would make every track ambiguous. No sink keeps its output in memory,
// and the bytes equal what a buffered tracer's WriteJSONL and
// WriteChrome and a buffered timeline's WriteCSV write. A sink runs
// when the scenario's knob (Trace for both trace formats, Timeline)
// asks for it and its writer is non-nil, so RunScenarioTo(sc, nil, nil,
// nil) is RunScenario(sc). The Result is identical to an untraced
// run's: the sinks observe the simulation without perturbing it. The
// returned ObsData holds the flushed sinks, whose Len counts the events
// and rows written. A failing writer does not stop the simulation: the
// Result comes back with the first write error.
func RunScenarioTo(sc Scenario, traceW, chromeW, timelineW io.Writer) (*Result, *ObsData, error) {
	res, od, err := run(sc, func(sc Scenario, sloMS float64) (od ObsData) {
		if sc.Trace && (traceW != nil || chromeW != nil) {
			od.Trace = obs.NewTracerTo(traceW, chromeW)
		}
		if sc.Timeline && timelineW != nil {
			od.Timeline = obs.NewTimelineTo(timelineW, sc.ObsTickMS, sloMS)
		}
		return od
	})
	if err != nil {
		return nil, nil, err
	}
	if od.Trace != nil {
		if ferr := od.Trace.Flush(); ferr != nil {
			err = fmt.Errorf("trace sink: %w", ferr)
		}
	}
	if od.Timeline != nil {
		if ferr := od.Timeline.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("timeline sink: %w", ferr)
		}
	}
	return res, &od, err
}

// run validates, normalizes and runs the scenario, attaching the sinks
// open builds to the Apparate run.
func run(sc Scenario, open openSinks) (*Result, ObsData, error) {
	// Validate before Normalize: canonicalization collapses axes (e.g.
	// dispatch at one replica) and must not mask a caller's bad value.
	if err := sc.Validate(); err != nil {
		return nil, ObsData{}, err
	}
	sc = sc.Normalize()
	if sc.Generative() {
		return runGenScenario(sc, open)
	}
	return runClassScenario(sc, open)
}

// runClassScenario runs a classification scenario, attaching the
// observability sinks open builds to the Apparate run.
func runClassScenario(sc Scenario, open openSinks) (*Result, ObsData, error) {
	m, err := model.ByName(sc.Model)
	if err != nil {
		return nil, ObsData{}, err
	}
	sched, _ := trace.ParseSchedule(sc.RateSchedule)
	stream, err := workload.ByNameSched(sc.Workload, sc.N, sc.arrivalQPS(m), sc.Seed, sched)
	if err != nil {
		return nil, ObsData{}, err
	}

	mode, _ := metrics.ParseMode(sc.Metrics)
	platform, _ := serving.ParsePlatform(sc.Platform)
	res := &Result{Scenario: sc, Requests: stream.Len()}
	od := open(sc, m.SLO())

	dispatch, _ := serving.ParseDispatch(sc.Dispatch)
	speeds, _ := serving.ParseSpeeds(sc.Hetero)
	opts := serving.ClusterOptions{
		Options:  serving.Options{Platform: platform, SLOms: m.SLO(), Metrics: mode},
		Replicas: sc.Replicas,
		Dispatch: dispatch,
		Speeds:   speeds,
	}
	maxReplicas := sc.Replicas
	if sc.Autoscale != "" {
		asCfg, _ := autoscale.Parse(sc.Autoscale)
		asCfg.SLOms = m.SLO()
		opts.Autoscale = &asCfg
		maxReplicas = asCfg.Max
	}
	if sc.Faults != "" {
		opts.Faults, _ = faults.Parse(sc.Faults)
	}
	if sc.Retry != "" {
		opts.Retry, _ = faults.ParseRetry(sc.Retry)
	}
	// The fault streams are labeled off the scenario seed, so the same
	// scenario always realizes the same crash/delay/loss schedule.
	opts.FaultSeed = sc.Seed
	res.SLOms = opts.SLOms

	// One Apparate controller per replica (§3): each replica adapts to
	// the traffic slice it sees. The event engine builds each replica's
	// handler exactly once — autoscaled runs create handlers lazily as
	// the cluster grows, so indexes past the realized peak never
	// materialize. Every handler of both runs shares m: a Model's fields
	// are fixed once ByName returns it, and the graph analysis it caches
	// on first use is a pure function of the graph.
	handlers := make([]*serving.ApparateHandler, maxReplicas)
	profile := exitsim.ProfileFor(m, stream.Kind)
	mkApparate := func(i int) serving.Handler {
		h := serving.NewApparate(m, profile, sc.RampBudget, controller.Config{
			AccConstraint: sc.AccLoss,
		})
		if sc.ExitRule != "" {
			rule, _ := exitrule.ByName(sc.ExitRule)
			h.Cfg.Rule = rule
		}
		handlers[i] = h
		return h
	}
	mkVanilla := func(int) serving.Handler { return &serving.VanillaHandler{Model: m} }
	// Vanilla serving never reads a sample, so the baseline runs on the
	// stream's sample-free pass: the same arrivals, no sample draws.
	v := serving.RunCluster(stream.WithoutSamples(), mkVanilla, opts)
	// The vanilla baseline above ran with the zero-valued sinks, so only
	// the Apparate cluster is traced.
	opts.Options.Trace, opts.Options.Timeline = od.Trace, od.Timeline
	a := serving.RunCluster(stream, mkApparate, opts)
	fillClass(res, v.Merged, a.Merged)
	if a.Faults != nil {
		res.Crashes = a.Faults.Crashes
		res.Lost = a.Faults.Lost
		res.Retries = a.Faults.Retried
		res.Hedges = a.Faults.Hedged
		res.DowntimeMS = a.Faults.Downtime()
		res.UnavailMS = a.Faults.UnavailMS
	}
	// Sum adaptation activity over the replicas that actually served
	// traffic. Replicas are created lazily as the autoscaler grows the
	// cluster, so handlers past the realized peak were never built and
	// are nil — only the first Scale.Peak() entries are real.
	served := len(handlers)
	if a.Scale != nil {
		served = a.Scale.Peak()
		res.ScaleUps = a.Scale.Ups()
		res.ScaleDowns = a.Scale.Downs()
		res.PeakReplicas = a.Scale.Peak()
	}
	for _, h := range handlers[:served] {
		res.TuneRounds += h.Ctl.TuneRounds
		res.AdjustRounds += h.Ctl.AdjustRounds
		res.ActiveRamps += len(h.Cfg.Active)
	}
	return res, od, nil
}

func fillClass(res *Result, v, a *serving.Stats) {
	res.Vanilla, res.Apparate = classSummary(v), classSummary(a)
	// Latency and accuracy are measured over delivered requests, so a
	// scenario in which either run delivered nothing has nothing to
	// compare: it reports no win and no accuracy loss, and its drop rate
	// of 1 says why.
	if v.Delivered > 0 && a.Delivered > 0 {
		fillWins(res)
	}
}

// classSummary reports a classification run's latency percentiles,
// accuracy, rates and goodput. A run that delivered nothing (every
// request dropped) has no latency distribution to summarize, so its
// percentiles stay zero, like a token-free generative run's.
func classSummary(st *serving.Stats) RunSummary {
	var sum RunSummary
	if st.Delivered > 0 {
		sum = summaryFromDist(st.Latencies())
	}
	sum.Accuracy, sum.Throughput = st.Accuracy, st.ThroughputQPS
	sum.DropRate, sum.SLOMissRate, sum.Goodput = st.DropRate, st.SLOMissRate, st.GoodputQPS
	return sum
}

// runGenScenario runs a generative scenario, attaching the
// observability sinks open builds to the Apparate run.
func runGenScenario(sc Scenario, open openSinks) (*Result, ObsData, error) {
	m, err := model.ByName(sc.Model)
	if err != nil {
		return nil, ObsData{}, err
	}
	stream, err := workload.GenByName(sc.Workload, sc.N, sc.arrivalQPS(m), sc.Seed)
	if err != nil {
		return nil, ObsData{}, err
	}
	mode, _ := metrics.ParseMode(sc.Metrics)
	cfg := Config{
		AccuracyConstraint: sc.AccLoss,
		GenSlots:           sc.GenSlots,
		GenFlush:           sc.GenFlush,
		KVBlocks:           sc.KVBlocks,
		BlockTokens:        sc.BlockTokens,
		PrefixHitRatio:     sc.PrefixHit,
		PrefillChunkTokens: sc.PrefillChunk,
		Seed:               sc.Seed,
		Metrics:            mode,
	}
	g := NewGen(m, stream.Kind, cfg)
	res := &Result{Scenario: sc, Generative: true, Requests: stream.Len()}
	// Each run is summarized before the next starts, so at most one
	// exact TPT recorder (every token of a run) is live at a time.
	res.Vanilla = genSummary(g.ServeVanilla(stream))
	// Attach the sinks after the vanilla baseline so only the Apparate
	// run is observed, exactly like the cluster path. The generative
	// timeline counts every completion as goodput.
	od := open(sc, 0)
	g.Engine.Trace, g.Engine.Timeline = od.Trace, od.Timeline
	a := g.Serve(stream)
	res.Apparate = genSummary(a)
	res.KVUtil = a.KVUtil
	res.PrefixHits = a.PrefixHits
	res.Preemptions = a.Preemptions
	res.QueueMS = a.QueueMS
	fillWins(res)
	res.TuneRounds = g.Policy.TuneRounds
	res.AdjustRounds = g.Policy.MoveRounds
	res.ActiveRamps = 1 // generative serving uses a single adjustable ramp (§4.4)
	return res, od, nil
}

// genSummary reports a generative run's TPT percentiles, sequence score
// and token throughput. A token-free run (empty stream, or every
// sequence at GenLen 0) has no TPT distribution to summarize —
// Percentile on an empty recorder is pinned as a panic — so its
// percentiles stay zero.
func genSummary(st *genserve.Stats) RunSummary {
	var sum RunSummary
	if st.TotalTokens > 0 {
		sum = summaryFromDist(st.TPT())
	}
	sum.Accuracy, sum.Throughput = st.MeanScore, st.TokensPerSec
	return sum
}

func fillWins(res *Result) {
	res.P50Win = metrics.WinPercent(res.Vanilla.P50ms, res.Apparate.P50ms)
	res.P95Win = metrics.WinPercent(res.Vanilla.P95ms, res.Apparate.P95ms)
	res.P99Win = metrics.WinPercent(res.Vanilla.P99ms, res.Apparate.P99ms)
	res.AccDelta = res.Vanilla.Accuracy - res.Apparate.Accuracy
}
