// Package controller implements Apparate's runtime adaptation (§3.2–3.3):
// an accuracy monitor over released results, accuracy-aware threshold
// tuning via greedy hill climbing with multiplicative step-size control
// (Algorithm 1), and latency-focused ramp adjustment driven by per-ramp
// utility scores and upper-bound exit rates (Algorithm 2, Figure 11).
//
// The controller consumes the per-ramp observations that Apparate records
// for every input at every active ramp — possible because inputs always
// run to the end of the model — and never needs extra inference to
// evaluate a candidate configuration.
package controller

import (
	"repro/internal/metrics"
	"repro/internal/ramp"
)

// Config holds the controller's tunables; zero fields take defaults.
type Config struct {
	// AccConstraint is the maximum tolerable accuracy loss relative to
	// the original model (paper default 0.01).
	AccConstraint float64
	// AccWindow is the trigger window length (paper default 16).
	AccWindow int
	// RecordWindow is how many recent records tuning replays (the paper
	// tunes on "the last window of data"; default 512 — wide enough
	// that threshold evaluations are statistically stable for
	// low-continuity workloads, short enough to track drift).
	RecordWindow int
	// AdjustEvery is the ramp-adjustment period in samples (default 128).
	AdjustEvery int
	// MinStep is the smallest threshold step (paper: 0.01).
	MinStep float64
	// InitStep is the starting threshold step (paper: 0.1).
	InitStep float64
	// DisableRampAdjust turns off Algorithm 2 (used by the §4.5
	// ablation).
	DisableRampAdjust bool
}

func (c Config) withDefaults() Config {
	if c.AccConstraint == 0 {
		c.AccConstraint = 0.01
	}
	if c.AccWindow == 0 {
		c.AccWindow = 16
	}
	if c.RecordWindow == 0 {
		c.RecordWindow = 512
	}
	if c.AdjustEvery == 0 {
		c.AdjustEvery = 128
	}
	if c.MinStep == 0 {
		c.MinStep = 0.01
	}
	if c.InitStep == 0 {
		c.InitStep = 0.1
	}
	return c
}

// Controller adapts one model replica's early-exit configuration.
type Controller struct {
	Cfg  *ramp.Config
	Opts Config

	acc *metrics.AccuracyWindow
	// tab holds the recorded window, its only copy: rows [tabEnd-filled,
	// tabEnd), oldest first, len(nodes) cells apart. Cell i of a row is
	// the observation of the ramp at site node nodes[i]: the first cols
	// are the active set's, the rest are retired (see syncTable). saving
	// is the savings row of the table's last view.
	tab    []ramp.Observation
	tabEnd int
	filled int
	nodes  []int
	cols   int
	saving []float64

	sinceAdjust int

	// negStreak counts consecutive adjustment rounds in which a ramp
	// (keyed by site node ID) showed negative utility; deactivation
	// requires persistence so transient regimes (a hostile scene, a new
	// category) do not destroy ramp positions that threshold tuning has
	// already neutralized at far lower cost.
	negStreak map[int]int

	// probeClock alternates the all-positive probing rule between
	// earlier-savings and coverage-gap additions.
	probeClock int

	// Counters for introspection and experiments.
	TuneRounds   int
	AdjustRounds int
}

// New returns a controller managing the given ramp configuration.
func New(cfg *ramp.Config, opts Config) *Controller {
	opts = opts.withDefaults()
	return &Controller{
		Cfg:       cfg,
		Opts:      opts,
		acc:       metrics.NewAccuracyWindow(opts.AccWindow),
		negStreak: make(map[int]int),
	}
}

// Observe ingests the outcome of one served input: records per-ramp
// profiling data, updates the accuracy window, and runs the two control
// loops at their respective cadences. It returns true if the exit
// configuration changed.
func (c *Controller) Observe(out ramp.Outcome) bool {
	c.syncTable()
	c.putRow(out.PerRamp)
	c.acc.Observe(out.Correct)

	changed := false
	// Fast loop: threshold tuning whenever windowed accuracy violates
	// the constraint (§3.2).
	if c.acc.Full() && c.acc.Accuracy() < 1-c.Opts.AccConstraint {
		c.TuneThresholds()
		c.acc.Reset() // judge the new configuration on fresh outcomes
		changed = true
	}
	// Slow loop: periodic ramp adjustment (§3.3). With adjustment
	// disabled (§4.5 ablation), the cadence degrades to a plain
	// threshold-tuning round so exiting still bootstraps off the initial
	// all-zero thresholds.
	c.sinceAdjust++
	if c.sinceAdjust >= c.Opts.AdjustEvery {
		c.sinceAdjust = 0
		if c.Opts.DisableRampAdjust {
			c.TuneThresholds()
			changed = true
		} else {
			if c.AdjustRamps() {
				changed = true
			}
			// Ramp adjustment is what changes the active set (a shift
			// that fails to activate reports no change but has
			// deactivated a ramp), so the table follows it here.
			c.syncTable()
		}
	}
	return changed
}

// TuneThresholds runs one greedy tuning round and installs the resulting
// thresholds. The search runs on the older 60% of the record window and
// is validated on the held-out recent 40%: maximizing savings subject to
// a noisy loss estimate systematically selects configurations whose loss
// is underestimated (a winner's curse), so candidates violating the
// budget on held-out data are scaled down until they comply. Monotone
// loss in thresholds guarantees convergence.
func (c *Controller) TuneThresholds() {
	if c.filled == 0 || len(c.Cfg.Active) == 0 {
		return
	}
	c.TuneRounds++
	tab := c.windowTable()
	split := tab.Len() * 3 / 5
	train, validate := tab.Rows(0, split), tab.Rows(split, tab.Len())
	if train.Len() == 0 || validate.Len() == 0 {
		res := GreedySearch(tab, c.tuneBudget(), c.Opts.InitStep, c.Opts.MinStep)
		c.Cfg.SetThresholds(res.Thresholds)
		return
	}
	res := GreedySearch(train, c.tuneBudget(), c.Opts.InitStep, c.Opts.MinStep)
	ts := res.Thresholds
	for i := 0; i < 12; i++ {
		if EvalThresholds(validate, ts).AccLoss <= c.tuneBudget() {
			break
		}
		for j := range ts {
			ts[j] *= 0.75
		}
	}
	c.Cfg.SetThresholds(ts)
}

// tuneBudget is the accuracy-loss target handed to threshold searches:
// the user constraint with headroom for residual estimation noise and
// detection lag.
func (c *Controller) tuneBudget() float64 {
	return 0.6 * c.Opts.AccConstraint
}
