package perf

import (
	"time"

	"repro/internal/exitsim"
	"repro/internal/genserve"
	"repro/internal/ramp"
	"repro/internal/serving"
)

// Span is one timed interval of the layers run. All spans of a scenario
// (or static-ee cell) carry its index in Scenario; Parent indexes the
// pass's span list, -1 for the scenario span itself. A per-request
// boundary is one aggregate span: Calls counts the calls, TotalNS sums
// them, and StartNS/EndNS bound the first and last call. Times are
// nanoseconds from the start of the pass.
type Span struct {
	Name     string `json:"name"`
	Scenario int    `json:"scenario"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Calls    int    `json:"calls"`
	TotalNS  int64  `json:"total_ns"`
}

// tracer records the spans of one scenario; one worker owns it. A nil
// tracer records nothing, so the end-to-end and layers runs share code.
type tracer struct {
	base  time.Time
	id    int
	spans []Span
	open  []int
	// exits counts the probed results released at a ramp.
	exits int
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Scenario: t.id, Parent: parent, StartNS: t.ns(time.Now()), Calls: 1})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.EndNS = t.ns(time.Now())
	s.TotalNS = s.EndNS - s.StartNS
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// agg accumulates the calls of one per-request boundary.
type agg struct {
	calls       int
	total       time.Duration
	first, last time.Time
}

func (a *agg) add(t0, t1 time.Time) {
	if a.calls == 0 {
		a.first = t0
	}
	a.calls++
	a.total += t1.Sub(t0)
	a.last = t1
}

// attach records a as an aggregate child of span parent (-1: the
// innermost open span) and returns its index, or -1 when a has no calls.
func (t *tracer) attach(parent int, name string, a *agg) int {
	if t == nil || a.calls == 0 {
		return -1
	}
	if parent < 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, Span{
		Name: name, Scenario: t.id, Parent: parent,
		StartNS: t.ns(a.first), EndNS: t.ns(a.last),
		Calls: a.calls, TotalNS: int64(a.total),
	})
	return len(t.spans) - 1
}

// probes collects the per-request boundaries of one system run; every
// replica of a cluster run shares them (cluster runs are
// single-threaded).
type probes struct {
	serve, evaluate, observe, decide agg
	// tune and adjust time the Observe calls that ran a threshold-tuning
	// or a ramp-adjustment round.
	tune, adjust agg
	exits        int
}

// attachTo records the probes that saw calls under the innermost open
// span: handler.serve holding ramp.evaluate and controller.observe, which
// holds the Observe calls that ran a tuning or adjustment round (a
// static handler has ramp.evaluate alone), or genserve.decide.
func (p *probes) attachTo(t *tracer) {
	if t == nil {
		return
	}
	t.exits += p.exits
	if p.serve.calls > 0 {
		serve := t.attach(-1, "handler.serve", &p.serve)
		t.attach(serve, "ramp.evaluate", &p.evaluate)
		observe := t.attach(serve, "controller.observe", &p.observe)
		t.attach(observe, "controller.tune_round", &p.tune)
		t.attach(observe, "controller.adjust_round", &p.adjust)
	} else {
		t.attach(-1, "ramp.evaluate", &p.evaluate)
	}
	t.attach(-1, "genserve.decide", &p.decide)
}

// apparateProbe serves through an ApparateHandler exactly as its Serve
// does — Cfg.Evaluate, then Ctl.Observe — timing both calls. It does not
// declare LatencyStable; sharding is off in every benchmark scenario.
type apparateProbe struct {
	h *serving.ApparateHandler
	p *probes
}

func (a apparateProbe) BatchLatency(b int) float64 { return a.h.BatchLatency(b) }

func (a apparateProbe) Serve(s exitsim.Sample, b int) ramp.Outcome {
	t0 := time.Now()
	out := a.h.Cfg.Evaluate(s, b)
	t1 := time.Now()
	tune, adjust := a.h.Ctl.TuneRounds, a.h.Ctl.AdjustRounds
	a.h.Ctl.Observe(out)
	t2 := time.Now()
	p := a.p
	p.serve.add(t0, t2)
	p.evaluate.add(t0, t1)
	p.observe.add(t1, t2)
	switch {
	case a.h.Ctl.AdjustRounds != adjust:
		p.adjust.add(t1, t2)
	case a.h.Ctl.TuneRounds != tune:
		p.tune.add(t1, t2)
	}
	if out.ExitIndex >= 0 {
		p.exits++
	}
	return out
}

// staticProbe serves through a StaticEEHandler, timing Cfg.Evaluate.
type staticProbe struct {
	h *serving.StaticEEHandler
	p *probes
}

func (s staticProbe) BatchLatency(b int) float64 { return s.h.BatchLatency(b) }

func (s staticProbe) Serve(x exitsim.Sample, b int) ramp.Outcome {
	t0 := time.Now()
	out := s.h.Cfg.Evaluate(x, b)
	s.p.evaluate.add(t0, time.Now())
	if out.ExitIndex >= 0 {
		s.p.exits++
	}
	return out
}

// policyProbe times a generative policy's per-token Decide.
type policyProbe struct {
	pol genserve.Policy
	p   *probes
}

func (g policyProbe) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	t0 := time.Now()
	exit, depth, overhead, match := g.pol.Decide(s)
	g.p.decide.add(t0, time.Now())
	return exit, depth, overhead, match
}

func (g policyProbe) ObserveFlush() { g.pol.ObserveFlush() }
