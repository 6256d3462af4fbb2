package perf

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"repro/internal/autoscale"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layerStats are the per-scenario counts the layers run folds into its
// metrics besides span times.
type layerStats struct {
	exits         int  // probed results released at a ramp
	tokens        int  // tokens the Apparate generative run produced
	kv            bool // the generative run took the KV-block runtime
	hedgeWasted   int
	obsEvents     int
	obsBytes      int64
	untracedRunNS int64 // the traced workload's Apparate run repeated with no sinks
}

// composeScenario runs one scenario the way core.RunScenario does, built
// from the layers' public functions, with a span (recorded by t) around
// each layer call and probes at the per-request boundaries. Its Result
// must equal RunScenario's. On the traced workload the obs files are
// written into obsDir, and the Apparate run is repeated without sinks,
// outside the scenario span, to measure what tracing costs it.
func composeScenario(sc core.Scenario, t *tracer, obsDir string) (res sweep.Result, ls layerStats) {
	defer func() {
		if r := recover(); r != nil {
			res = sweep.Result{Result: core.Result{Scenario: sc}, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	t.begin("scenario")
	var r *core.Result
	var err error
	if sc.Generative() {
		r, err = composeGen(sc, t, &ls)
	} else {
		r, err = composeClass(sc, t, obsDir, &ls)
	}
	t.end()
	if err != nil {
		return sweep.Result{Result: core.Result{Scenario: sc}, Err: err.Error()}, ls
	}
	if !sc.Generative() && (sc.Trace || sc.Timeline) {
		twin := &tracer{base: t.base}
		if _, err := composeClass(stripObs(sc), twin, "", nil); err != nil {
			return sweep.Result{Result: *r, Err: err.Error()}, ls
		}
		ls.untracedRunNS = spanTotal(twin.spans, "apparate_run")
	}
	return sweep.Result{Result: *r}, ls
}

func stripObs(sc core.Scenario) core.Scenario {
	sc.Trace, sc.Timeline, sc.ObsTickMS = false, false, 0
	return sc
}

// kindFor maps a workload to its calibration kind, as core does.
func kindFor(name string) exitsim.Kind {
	switch name {
	case "amazon":
		return exitsim.KindAmazon
	case "imdb":
		return exitsim.KindIMDB
	case "cnn-dailymail":
		return exitsim.KindCNNDailyMail
	case "squad":
		return exitsim.KindSQuAD
	}
	return exitsim.KindVideo
}

// byName is model.ByName inside a model.by_name span.
func byName(t *tracer, name string) (m *model.Model, err error) {
	t.timed("model.by_name", func() { m, err = model.ByName(name) })
	return m, err
}

// composeClass mirrors core's classification path. With a nil ls it
// runs the Apparate run alone, for the untraced repeat.
func composeClass(sc core.Scenario, t *tracer, obsDir string, ls *layerStats) (*core.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalize()
	m, err := byName(t, sc.Model)
	if err != nil {
		return nil, err
	}
	kind := kindFor(sc.Workload)
	mode, _ := metrics.ParseMode(sc.Metrics)
	platform, _ := serving.ParsePlatform(sc.Platform)
	var stream *workload.Stream
	t.timed("core.setup", func() {
		qps := 30 * sc.RateMult
		if !workload.IsVideo(sc.Workload) {
			qps = trace.TargetQPS(m) * sc.RateMult * float64(sc.Replicas)
		}
		sched, _ := trace.ParseSchedule(sc.RateSchedule)
		stream, err = workload.ByNameSched(sc.Workload, sc.N, qps, sc.Seed, sched)
	})
	if err != nil {
		return nil, err
	}
	res := &core.Result{Scenario: sc, Requests: stream.Len(), SLOms: m.SLO()}
	var tr *obs.Tracer
	var tl *obs.Timeline
	if sc.Trace {
		tr = obs.NewTracer()
	}
	if sc.Timeline {
		tl = obs.NewTimeline(sc.ObsTickMS, m.SLO())
	}
	var p probes
	var v, a *serving.Stats
	var handlers []*serving.ApparateHandler
	newApparate := func(mm *model.Model) *serving.ApparateHandler {
		var h *serving.ApparateHandler
		t.timed("core.setup", func() {
			h = serving.NewApparate(mm, exitsim.ProfileFor(mm, kind), sc.RampBudget, controller.Config{AccConstraint: sc.AccLoss})
			if sc.ExitRule != "" {
				h.Cfg.Rule, _ = exitrule.ByName(sc.ExitRule)
			}
		})
		handlers = append(handlers, h)
		return h
	}

	opts := serving.Options{Platform: platform, SLOms: m.SLO(), Metrics: mode}
	if sc.Replicas == 1 && sc.Autoscale == "" && sc.Faults == "" && sc.Retry == "" {
		h := newApparate(m)
		if ls != nil {
			t.timed("vanilla_run", func() { v = serving.Run(stream.Iter(), &serving.VanillaHandler{Model: m}, opts) })
		}
		opts.Trace, opts.Timeline = tr, tl
		t.begin("apparate_run")
		a = serving.Run(stream.Iter(), apparateProbe{h, &p}, opts)
		p.attachTo(t)
		t.end()
	} else {
		dispatch, _ := serving.ParseDispatch(sc.Dispatch)
		speeds, _ := serving.ParseSpeeds(sc.Hetero)
		copts := serving.ClusterOptions{Options: opts, Replicas: sc.Replicas, Dispatch: dispatch, Speeds: speeds, FaultSeed: sc.Seed}
		if sc.Autoscale != "" {
			as, _ := autoscale.Parse(sc.Autoscale)
			as.SLOms = m.SLO()
			copts.Autoscale = &as
		}
		if sc.Faults != "" {
			copts.Faults, _ = faults.Parse(sc.Faults)
		}
		if sc.Retry != "" {
			copts.Retry, _ = faults.ParseRetry(sc.Retry)
		}
		mkVanilla := func(int) serving.Handler {
			mm, _ := byName(t, sc.Model)
			return &serving.VanillaHandler{Model: mm}
		}
		mkApparate := func(int) serving.Handler {
			mm, _ := byName(t, sc.Model)
			return apparateProbe{newApparate(mm), &p}
		}
		if ls != nil {
			t.timed("vanilla_run", func() { v = serving.RunCluster(stream, mkVanilla, copts).Merged })
		}
		copts.Trace, copts.Timeline = tr, tl
		t.begin("apparate_run")
		cs := serving.RunCluster(stream, mkApparate, copts)
		p.attachTo(t)
		t.end()
		a = cs.Merged
		if f := cs.Faults; f != nil {
			res.Crashes, res.Lost, res.Retries, res.Hedges = f.Crashes, f.Lost, f.Retried, f.Hedged
			res.DowntimeMS, res.UnavailMS = f.Downtime(), f.UnavailMS
			if ls != nil {
				ls.hedgeWasted = f.Wasted
			}
		}
		if cs.Scale != nil {
			res.ScaleUps, res.ScaleDowns, res.PeakReplicas = cs.Scale.Ups(), cs.Scale.Downs(), cs.Scale.Peak()
		}
	}
	if ls == nil {
		return res, nil
	}
	for _, h := range handlers {
		res.TuneRounds += h.Ctl.TuneRounds
		res.AdjustRounds += h.Ctl.AdjustRounds
		res.ActiveRamps += len(h.Cfg.Active)
	}
	t.timed("metrics.summary", func() { res.Vanilla, res.Apparate = classSummary(v), classSummary(a) })
	fillWins(res)

	if tr != nil || tl != nil {
		if tr != nil {
			ls.obsEvents = tr.Len()
		}
		var werr error
		t.timed("obs.write", func() { ls.obsBytes, werr = writeObs(obsDir, tr, tl) })
		if werr != nil {
			return nil, werr
		}
	}
	it := stream.Iter()
	drainStream(t, func() bool { _, ok := it.Next(); return ok })
	return res, nil
}

// writeObs writes the sinks under the names sweep.Run gives a
// one-scenario sweep and returns the bytes written.
func writeObs(dir string, tr *obs.Tracer, tl *obs.Timeline) (int64, error) {
	var total int64
	write := func(name string, w func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := w(f); err != nil {
			f.Close()
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		total += fi.Size()
		return f.Close()
	}
	if tr != nil {
		if err := write("trace_000.jsonl", tr.WriteJSONL); err != nil {
			return total, err
		}
	}
	if tl != nil {
		if err := write("timeline_000.csv", tl.WriteCSV); err != nil {
			return total, err
		}
	}
	return total, nil
}

// retainedMiB is the memory a tracer's buffered events hold.
func retainedMiB(events int) float64 {
	return float64(events) * float64(unsafe.Sizeof(obs.Event{})) / (1 << 20)
}

// composeGen mirrors core's generative path.
func composeGen(sc core.Scenario, t *tracer, ls *layerStats) (*core.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalize()
	m, err := byName(t, sc.Model)
	if err != nil {
		return nil, err
	}
	mode, _ := metrics.ParseMode(sc.Metrics)
	var stream *workload.GenStream
	var g *core.GenSystem
	t.timed("core.setup", func() {
		stream, err = workload.GenByName(sc.Workload, sc.N, 2*sc.RateMult, sc.Seed)
		g = core.NewGen(m, kindFor(sc.Workload), core.Config{
			AccuracyConstraint: sc.AccLoss, RampBudget: sc.RampBudget,
			GenSlots: sc.GenSlots, GenFlush: sc.GenFlush,
			KVBlocks: sc.KVBlocks, BlockTokens: sc.BlockTokens,
			PrefixHitRatio: sc.PrefixHit, PrefillChunkTokens: sc.PrefillChunk,
			Seed: sc.Seed, Metrics: mode,
		})
	})
	if err != nil {
		return nil, err
	}
	var v, a *genserve.Stats
	t.timed("vanilla_run", func() { v = g.ServeVanilla(stream) })
	var p probes
	t.begin("apparate_run")
	a = g.Engine.Run(stream, policyProbe{g.Policy, &p})
	p.attachTo(t)
	t.end()

	res := &core.Result{Scenario: sc, Generative: true, Requests: stream.Len()}
	t.timed("metrics.summary", func() {
		if v.TotalTokens > 0 {
			res.Vanilla = latencySummary(v.TPT())
		}
		if a.TotalTokens > 0 {
			res.Apparate = latencySummary(a.TPT())
		}
	})
	res.Vanilla.Accuracy, res.Apparate.Accuracy = v.MeanScore, a.MeanScore
	res.Vanilla.Throughput, res.Apparate.Throughput = v.TokensPerSec, a.TokensPerSec
	res.KVUtil, res.PrefixHits, res.Preemptions, res.QueueMS = a.KVUtil, a.PrefixHits, a.Preemptions, a.QueueMS
	fillWins(res)
	res.TuneRounds, res.AdjustRounds, res.ActiveRamps = g.Policy.TuneRounds, g.Policy.MoveRounds, 1
	ls.tokens = a.TotalTokens
	ls.kv = sc.KVBlocks > 0 || sc.PrefixHit > 0 || sc.PrefillChunk > 0
	it := stream.Iter()
	drainStream(t, func() bool { _, ok := it.Next(); return ok })
	drainTokens(t, stream)
	return res, nil
}

// latencySummary holds the percentiles and mean core reports for a run.
func latencySummary(d metrics.Recorder) core.RunSummary {
	return core.RunSummary{
		P25ms: d.Percentile(25), P50ms: d.Percentile(50),
		P95ms: d.Percentile(95), P99ms: d.Percentile(99),
		MeanMS: d.Mean(),
	}
}

func fillWins(res *core.Result) {
	res.P50Win = metrics.WinPercent(res.Vanilla.P50ms, res.Apparate.P50ms)
	res.P95Win = metrics.WinPercent(res.Vanilla.P95ms, res.Apparate.P95ms)
	res.P99Win = metrics.WinPercent(res.Vanilla.P99ms, res.Apparate.P99ms)
	res.AccDelta = res.Vanilla.Accuracy - res.Apparate.Accuracy
}

// tokenDrainSeqs bounds the sequences whose tokens the layers run
// samples for workload.token_sample_ns: enough calls for a stable mean
// at a small share of the scenario.
const tokenDrainSeqs = 64

// drainTokens times TokenSampler.Next over the first sequences of the
// stream as the workload.token_sample aggregate span.
func drainTokens(t *tracer, stream *workload.GenStream) {
	var a agg
	for _, req := range stream.Prefix(min(tokenDrainSeqs, stream.Len())) {
		ts := workload.NewTokenSampler(req)
		t0 := time.Now()
		for i := 0; i < req.GenLen; i++ {
			ts.Next()
		}
		calls := a.calls
		a.add(t0, time.Now())
		a.calls = calls + req.GenLen
	}
	t.attach(-1, "workload.token_sample", &a)
}
