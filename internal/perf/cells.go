package perf

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
)

// CellResult is one static-ee cell's outcome: the vanilla baseline and
// the system on the same stream, summarized the way core summarizes a
// scenario.
type CellResult struct {
	Cell     string          `json:"cell"`
	Requests int             `json:"requests"`
	Vanilla  core.RunSummary `json:"vanilla"`
	System   core.RunSummary `json:"system"`
	P50Win   float64         `json:"p50_win_pct"`
	P95Win   float64         `json:"p95_win_pct"`
	AccDelta float64         `json:"acc_delta"`
}

// staticAccLoss is the accuracy budget table2 gives every static-EE
// variant (the non-oracle ones tune against three times it).
const staticAccLoss = 0.01

// runCell runs one static-ee cell as table2 does: vanilla and the system
// on the cell's stream through serving.Run on Clockwork at the model's
// SLO. With a non-nil tracer it records spans and serves through probes.
func runCell(c Cell, t *tracer) (u unit) {
	start := time.Now()
	u.name = c.Name()
	defer func() {
		if r := recover(); r != nil {
			u.failure = fmt.Sprintf("panic: %v", r)
		}
		u.dur = time.Since(start)
	}()
	t.begin("scenario")
	defer t.end()

	var prof exitsim.Profile
	t.timed("core.setup", func() { prof = exitsim.ProfileFor(c.Model, c.Kind) })
	opts := serving.Options{Platform: serving.Clockwork, SLOms: c.Model.SLO()}
	var v *serving.Stats
	t.timed("vanilla_run", func() { v = serving.Run(c.Stream.Iter(), &serving.VanillaHandler{Model: c.Model}, opts) })

	var h serving.Handler
	boot := c.Samples[:len(c.Samples)/10]
	switch c.System {
	case SysApparate:
		var fresh *model.Model
		t.timed("model.by_name", func() { fresh, _ = model.ByName(c.Model.Name) })
		t.timed("core.setup", func() { h = serving.NewApparate(fresh, prof, 0.02, controller.Config{}) })
	case SysShared:
		t.timed("baselines.tune_shared", func() {
			h = baselines.StaticEE(c.Model, prof, c.Style, c.Overhead, baselines.SharedThreshold, boot, nil, staticAccLoss)
		})
	case SysPerRamp:
		t.timed("baselines.tune_per_ramp", func() {
			h = baselines.StaticEE(c.Model, prof, c.Style, c.Overhead, baselines.PerRamp, boot, nil, staticAccLoss)
		})
	case SysOracle:
		t.timed("baselines.tune_oracle", func() {
			h = baselines.StaticEE(c.Model, prof, c.Style, c.Overhead, baselines.OracleTuned, nil, c.Samples, staticAccLoss)
		})
	}

	run := "apparate_run"
	if c.System != SysApparate {
		run = "static_run"
	}
	var p probes
	if t != nil {
		switch hh := h.(type) {
		case *serving.ApparateHandler:
			h = apparateProbe{hh, &p}
		case *serving.StaticEEHandler:
			h = staticProbe{hh, &p}
		}
	}
	t.begin(run)
	s := serving.Run(c.Stream.Iter(), h, opts)
	p.attachTo(t)
	t.end()

	res := CellResult{Cell: c.Name(), Requests: c.Stream.Len()}
	t.timed("metrics.summary", func() { res.Vanilla, res.System = classSummary(v), classSummary(s) })
	res.P50Win = metrics.WinPercent(res.Vanilla.P50ms, res.System.P50ms)
	res.P95Win = metrics.WinPercent(res.Vanilla.P95ms, res.System.P95ms)
	res.AccDelta = res.Vanilla.Accuracy - res.System.Accuracy
	if t != nil {
		it := c.Stream.Iter()
		drainStream(t, func() bool { _, ok := it.Next(); return ok })
	}

	u.out = res
	for _, r := range []struct {
		run   string
		stats *serving.Stats
		sum   core.RunSummary
	}{{"vanilla", v, res.Vanilla}, {"system", s, res.System}} {
		msg := checkSummary(r.sum, false)
		if r.stats.Total != res.Requests {
			msg = fmt.Sprintf("served %d requests, want %d", r.stats.Total, res.Requests)
		}
		if msg != "" && u.failure == "" {
			u.failure = r.run + " " + msg
		}
	}
	return u
}

// classSummary summarizes a classification run exactly as core does
// for a scenario's vanilla and Apparate runs.
func classSummary(s *serving.Stats) core.RunSummary {
	sum := latencySummary(s.Latencies())
	sum.Accuracy, sum.Throughput = s.Accuracy, s.ThroughputQPS
	sum.DropRate, sum.SLOMissRate, sum.Goodput = s.DropRate, s.SLOMissRate, s.GoodputQPS
	return sum
}

// drainStream times a full drain of a request iterator, called through
// next, as the workload.next aggregate span.
func drainStream(t *tracer, next func() bool) {
	var a agg
	t0 := time.Now()
	n := 0
	for next() {
		n++
	}
	a.add(t0, time.Now())
	a.calls = n
	t.attach(-1, "workload.next", &a)
}
