// Package autoscale implements a reactive replica autoscaler for the
// cluster simulator: windowed load signals (estimated p99 latency
// versus the SLO, peak queue backlog per replica, capacity utilization)
// drive scale-up/scale-down decisions bounded by min/max replica counts
// and a cooldown between actions. The scaler itself is pure policy — it
// consumes Signals and emits replica counts — so it is deterministic,
// trivially testable, and independent of the serving layer that feeds
// it. The cluster runtime consults the scaler online: window boundaries
// are crossed on the event loop, each window's Signal is computed from
// the live simulated queue state, and every decision takes effect for
// the arrivals that follow. The realized decisions are recorded as a
// Plan — the (time, replicas) step function reported on ClusterStats —
// and because the whole event loop is deterministic, autoscaled cluster
// runs stay byte-identical at any sweep worker count.
package autoscale

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Config bounds and tunes the reactive scaler; zero thresholds take the
// defaults noted on each field.
type Config struct {
	// Min and Max bound the replica count; runs start at Min.
	Min, Max int
	// SLOms is the latency objective the latency signals compare
	// against. It must be set by the caller (the serving layer knows the
	// model's SLO); Parse leaves it zero.
	SLOms float64
	// WindowMS is the signal window length (default 1000).
	WindowMS float64
	// CooldownMS is the minimum gap between scaling actions (default
	// 3×WindowMS): reacting to every window makes the replica count
	// chase noise, and real autoscalers rate-limit for the same reason.
	CooldownMS float64
	// UpLatFrac scales up when the windowed estimated p99 latency
	// exceeds UpLatFrac×SLOms (default 1.0 — the SLO itself).
	UpLatFrac float64
	// UpBacklogFrac scales up when the window's peak per-replica queue
	// backlog exceeds UpBacklogFrac×SLOms (default 2.0): a backlog worth
	// two SLOs cannot drain without misses even if latency has not
	// crossed the line yet.
	UpBacklogFrac float64
	// DownLatFrac and DownUtil gate scale-down: the windowed p99 must
	// sit below DownLatFrac×SLOms (default 0.75 — the default SLO is 2×
	// the batch-1 service time, so an unqueued window sits near
	// 0.5×SLO and qualifies) AND utilization of the active capacity
	// below DownUtil (default 0.45), so retiring a replica cannot
	// immediately re-trigger scale-up.
	DownLatFrac float64
	DownUtil    float64
}

func (c Config) withDefaults() Config {
	if c.WindowMS == 0 {
		c.WindowMS = 1000
	}
	if c.CooldownMS == 0 {
		c.CooldownMS = 3 * c.WindowMS
	}
	if c.UpLatFrac == 0 {
		c.UpLatFrac = 1.0
	}
	if c.UpBacklogFrac == 0 {
		c.UpBacklogFrac = 2.0
	}
	if c.DownLatFrac == 0 {
		c.DownLatFrac = 0.75
	}
	if c.DownUtil == 0 {
		c.DownUtil = 0.45
	}
	return c
}

// Validate checks the bounds and thresholds.
func (c Config) Validate() error {
	if c.Min < 1 {
		return fmt.Errorf("autoscale: min replicas %d must be >= 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("autoscale: max replicas %d must be >= min %d", c.Max, c.Min)
	}
	c = c.withDefaults()
	// The negated comparisons also reject NaN, which compares false to
	// everything: a NaN threshold would silently never fire.
	if !(c.WindowMS > 0) || math.IsInf(c.WindowMS, 0) || !(c.CooldownMS > 0) || math.IsInf(c.CooldownMS, 0) {
		return fmt.Errorf("autoscale: window %gms and cooldown %gms must be positive and finite", c.WindowMS, c.CooldownMS)
	}
	if !(c.DownLatFrac > 0) || !(c.DownLatFrac < c.UpLatFrac) || math.IsInf(c.UpLatFrac, 0) {
		return fmt.Errorf("autoscale: need 0 < down=%g < up=%g latency fractions, both finite", c.DownLatFrac, c.UpLatFrac)
	}
	if !(c.UpBacklogFrac > 0) || math.IsInf(c.UpBacklogFrac, 0) {
		return fmt.Errorf("autoscale: backlog fraction %g must be positive and finite", c.UpBacklogFrac)
	}
	if !(c.DownUtil > 0) || !(c.DownUtil < 1) {
		return fmt.Errorf("autoscale: down-utilization %g must be in (0, 1)", c.DownUtil)
	}
	return nil
}

// MaxWindows bounds the signal windows one run may close. The cluster
// closes every window an arrival gap spans, one at a time, so a window
// that is tiny next to the run's length stalls the run without ever
// failing. The benchmark and golden grids close at most 80; a million
// windows cost ~0.3 s.
const MaxWindows = 1e6

// CheckRun returns an error if a run expected to span runMS of
// simulated time would close more than MaxWindows signal windows.
func (c Config) CheckRun(runMS float64) error {
	window := c.withDefaults().WindowMS
	if n := runMS / window; !(n <= MaxWindows) {
		return fmt.Errorf("autoscale: a %gms window closes %.3g windows over the expected %.3gms run, above the %g limit", window, n, runMS, float64(MaxWindows))
	}
	return nil
}

// String returns the canonical "MIN..MAX[/key=value...]" spec,
// omitting values that equal the defaults.
func (c Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d..%d", c.Min, c.Max)
	d := Config{Min: c.Min, Max: c.Max}.withDefaults()
	f := func(key string, v, def float64) {
		if v != 0 && v != def {
			fmt.Fprintf(&b, "/%s=%g", key, v)
		}
	}
	f("window", c.WindowMS, d.WindowMS)
	// Cooldown's default derives from the (possibly overridden) window.
	if c.CooldownMS != 0 && c.CooldownMS != 3*c.withDefaults().WindowMS {
		fmt.Fprintf(&b, "/cool=%g", c.CooldownMS)
	}
	f("up", c.UpLatFrac, d.UpLatFrac)
	f("backlog", c.UpBacklogFrac, d.UpBacklogFrac)
	f("downlat", c.DownLatFrac, d.DownLatFrac)
	f("down", c.DownUtil, d.DownUtil)
	return b.String()
}

// Parse parses an autoscaler spec: "MIN..MAX" optionally followed by
// '/'-separated key=value overrides, e.g.
//
//	1..4
//	1..4/window=2000/cool=6000
//	2..8/up=0.9/down=0.3
//
// Keys: window (ms), cool (ms), up (scale-up p99/SLO fraction), backlog
// (scale-up backlog/SLO fraction), downlat (scale-down p99/SLO
// fraction), down (scale-down utilization). SLOms is left zero for the
// caller to fill. The empty spec returns the zero Config and no error.
func Parse(spec string) (Config, error) {
	var c Config
	if spec == "" {
		return c, nil
	}
	parts := strings.Split(spec, "/")
	lo, hi, ok := strings.Cut(parts[0], "..")
	if !ok {
		return c, fmt.Errorf("autoscale: spec %q must start with MIN..MAX (e.g. 1..4)", spec)
	}
	var err error
	if c.Min, err = strconv.Atoi(lo); err != nil {
		return c, fmt.Errorf("autoscale: min replicas %q: %v", lo, err)
	}
	if c.Max, err = strconv.Atoi(hi); err != nil {
		return c, fmt.Errorf("autoscale: max replicas %q: %v", hi, err)
	}
	for _, p := range parts[1:] {
		key, valS, ok := strings.Cut(p, "=")
		if !ok {
			return c, fmt.Errorf("autoscale: option %q must be key=value", p)
		}
		v, err := strconv.ParseFloat(valS, 64)
		if err != nil {
			return c, fmt.Errorf("autoscale: option %s=%q: %v", key, valS, err)
		}
		switch key {
		case "window":
			c.WindowMS = v
		case "cool":
			c.CooldownMS = v
		case "up":
			c.UpLatFrac = v
		case "backlog":
			c.UpBacklogFrac = v
		case "downlat":
			c.DownLatFrac = v
		case "down":
			c.DownUtil = v
		default:
			return c, fmt.Errorf("autoscale: unknown option %q (want window | cool | up | backlog | downlat | down)", key)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Signal is one window's aggregated load observation.
type Signal struct {
	// Requests is the number of arrivals in the window.
	Requests int
	// P99LatMS is the windowed estimated p99 request latency.
	P99LatMS float64
	// PeakBacklogMS is the window's peak per-replica queue backlog in
	// milliseconds of estimated work.
	PeakBacklogMS float64
	// Utilization is demanded service time over active capacity
	// (replicas × window length); may exceed 1 when overloaded.
	Utilization float64
}

// Scaler turns windowed Signals into replica counts. It is pure state
// machine — no clock, no randomness — so identical signal sequences
// always yield identical decisions.
type Scaler struct {
	cfg      Config
	replicas int
	lastAct  float64
	acted    bool

	// Ups and Downs count committed scaling actions.
	Ups, Downs int

	// OnDecision, when non-nil, is invoked after each committed scaling
	// action with the decision time and the replica counts before and
	// after. It is observation only — the decision is already made when
	// it fires — so wiring it cannot change scaler behavior.
	OnDecision func(atMS float64, from, to int)
}

// New returns a scaler starting at cfg.Min replicas. It panics on an
// invalid config — scaler construction is experiment setup, not a
// runtime condition.
func New(cfg Config) *Scaler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Scaler{cfg: cfg.withDefaults(), replicas: cfg.Min}
}

// Config returns the scaler's effective (default-filled) configuration.
func (s *Scaler) Config() Config { return s.cfg }

// Replicas returns the current replica count.
func (s *Scaler) Replicas() int { return s.replicas }

// Observe ingests one window's signal at nowMS (the window's end) and
// returns the new replica count and whether it changed. Scaling moves
// one replica at a time — the reactive policy of self-stabilizing
// elastic frameworks — and honors the cooldown between actions.
func (s *Scaler) Observe(nowMS float64, sig Signal) (int, bool) {
	if s.acted && nowMS-s.lastAct < s.cfg.CooldownMS {
		return s.replicas, false
	}
	prev := s.replicas
	slo := s.cfg.SLOms
	switch {
	case s.replicas < s.cfg.Max &&
		(sig.P99LatMS > s.cfg.UpLatFrac*slo || sig.PeakBacklogMS > s.cfg.UpBacklogFrac*slo):
		s.replicas++
		s.Ups++
	case s.replicas > s.cfg.Min && sig.Requests > 0 &&
		sig.P99LatMS < s.cfg.DownLatFrac*slo && sig.Utilization < s.cfg.DownUtil:
		s.replicas--
		s.Downs++
	case s.replicas > s.cfg.Min && sig.Requests == 0:
		// An idle window is the strongest scale-down evidence there is.
		s.replicas--
		s.Downs++
	default:
		return s.replicas, false
	}
	s.lastAct, s.acted = nowMS, true
	if s.OnDecision != nil {
		s.OnDecision(nowMS, prev, s.replicas)
	}
	return s.replicas, true
}

// Step is one replica-count change: from AtMS on, Replicas are active.
type Step struct {
	AtMS     float64 `json:"at_ms"`
	Replicas int     `json:"replicas"`
}

// Plan is a realized scaling timeline: the Start count from time zero,
// then the committed steps in increasing time order. The cluster
// runtime builds it online as decisions commit and reports it on
// ClusterStats; it costs O(# scale events) memory.
type Plan struct {
	Start int    `json:"start"`
	Steps []Step `json:"steps,omitempty"`
}

// Peak returns the maximum replica count the plan ever activates.
func (p *Plan) Peak() int {
	peak := p.Start
	for _, s := range p.Steps {
		if s.Replicas > peak {
			peak = s.Replicas
		}
	}
	return peak
}

// Ups and Downs count the plan's scale-up and scale-down steps.
func (p *Plan) Ups() int {
	ups, cur := 0, p.Start
	for _, s := range p.Steps {
		if s.Replicas > cur {
			ups++
		}
		cur = s.Replicas
	}
	return ups
}

// Downs counts the plan's scale-down steps.
func (p *Plan) Downs() int {
	downs, cur := 0, p.Start
	for _, s := range p.Steps {
		if s.Replicas < cur {
			downs++
		}
		cur = s.Replicas
	}
	return downs
}
