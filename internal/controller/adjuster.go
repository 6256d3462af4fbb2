package controller

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/ramp"
)

// Utility quantifies one active ramp's net effect on workload latency
// over the record window, in milliseconds (§3.3): savings summed over
// inputs it exited, minus the overhead it added to inputs that passed it
// without exiting (inputs that already exited upstream pay nothing —
// their result is already out).
type Utility struct {
	NodeID   int
	Savings  float64
	Overhead float64
	Exits    int
}

// Net returns savings − overhead.
func (u Utility) Net() float64 { return u.Savings - u.Overhead }

// utilities evaluates the current active set under its deployed
// thresholds against the window's replay table, which must have been
// built over the same active set: each row charges overhead to every
// ramp before its exit and credits the saving to the exit's.
func (c *Controller) utilities(tab Table) []Utility {
	cfg := c.Cfg
	out := make([]Utility, len(cfg.Active))
	base := cfg.Model.Latency(1)
	for i, r := range cfg.Active {
		out[i].NodeID = r.Site.NodeID
	}
	ts := cfg.Thresholds()
	for row := 0; row < tab.Len(); row++ {
		e := exitCol(tab.row(row), ts)
		for i, r := range cfg.Active[:e] {
			// The ramp ran but could not exit this input.
			out[i].Overhead += base * r.Style.OverheadFrac
		}
		if e < len(out) {
			// Saving: the layers this input skipped.
			out[e].Savings += base * (1 - cfg.Active[e].Site.Frac)
			out[e].Exits++
		}
	}
	return out
}

// savedMS returns the per-exit latency saving of a ramp site.
func savedMS(m *model.Model, site model.RampSite) float64 {
	return m.Latency(1) * (1 - site.Frac)
}

// AdjustRamps is Algorithm 2, plus one robustness invariant: the active
// set never goes empty. During hostile regimes (heavy miscalibration
// drift) every ramp can show negative utility and be culled; without at
// least one ramp the controller would lose its feedback stream and never
// recover once the regime passes. A zero-threshold sentinel at the
// deepest feasible site keeps recovery possible at one ramp's overhead.
// It returns true if the active set changed.
func (c *Controller) AdjustRamps() bool {
	if len(c.Cfg.Active) == 0 {
		c.seedSentinel()
		return true
	}
	if c.filled < c.Opts.AccWindow {
		return false
	}
	c.AdjustRounds++
	tab := c.windowTable()
	utils := c.utilities(tab)

	anyNegative := false
	for _, u := range utils {
		if u.Net() < 0 {
			anyNegative = true
			break
		}
	}

	var deactivated []deactivatedRamp
	if anyNegative {
		// Try a fast threshold-tuning round first: thresholds may be
		// able to make every utility positive without hurting savings.
		before := EvalThresholds(tab, c.Cfg.Thresholds())
		tuned := GreedySearch(tab, c.tuneBudget(), c.Opts.InitStep, c.Opts.MinStep)
		if tuned.SavingFrac >= before.SavingFrac {
			c.Cfg.SetThresholds(tuned.Thresholds)
			utils = c.utilities(tab)
		}
		// Update persistence streaks under the (possibly) new
		// thresholds.
		totalExits := 0
		for _, u := range utils {
			totalExits += u.Exits
			if u.Net() < 0 {
				c.negStreak[u.NodeID]++
			} else {
				delete(c.negStreak, u.NodeID)
			}
		}
		// During a total storm — no ramp exits anything — every utility
		// is "negative" by the same overhead. Removing ramps then saves
		// a bounded overhead but destroys positions the system needs the
		// moment the regime passes (thresholds are already zero, so the
		// ramps cost nothing in accuracy). Deactivate only when some
		// ramps are productive and these are relative losers.
		if totalExits == 0 {
			return true
		}
		// Deactivate the single worst ramp whose utility has been
		// negative for two consecutive rounds, and never shrink the set
		// below two ramps: culling is cheap to undo in theory but
		// positions take many rounds to rediscover, so the set erodes
		// slowly while additions can still reclaim the freed budget.
		limit := 1
		if len(utils) <= 2 {
			limit = 0
		}
		for len(deactivated) < limit {
			worst := -1
			for i, u := range utils {
				if u.Net() < 0 && c.negStreak[u.NodeID] >= 2 &&
					(worst < 0 || u.Net() < utils[worst].Net()) {
					worst = i
				}
			}
			if worst < 0 {
				break
			}
			deactivated = append(deactivated, deactivatedRamp{
				site:  c.Cfg.Active[worst].Site,
				exits: utils[worst].Exits,
			})
			delete(c.negStreak, utils[worst].NodeID)
			c.Cfg.Deactivate(worst)
			utils = append(utils[:worst], utils[worst+1:]...)
		}
		if len(deactivated) == 0 {
			// Tuning fixed the utilities, or persistence has not built
			// up yet; nothing else to do.
			return true
		}
		// Restore depth order for the Figure 11 interval logic.
		sort.Slice(deactivated, func(i, j int) bool {
			return deactivated[i].site.Frac < deactivated[j].site.Frac
		})
		added := c.addAfterDeactivation(tab.Len(), deactivated)
		if len(c.Cfg.Active) == 0 {
			c.seedSentinel()
		}
		return added || len(deactivated) > 0
	}

	// All utilities positive: reset persistence and probe for earlier
	// savings.
	for k := range c.negStreak {
		delete(c.negStreak, k)
	}
	return c.probeEarlier(utils)
}

type deactivatedRamp struct {
	site  model.RampSite
	exits int
}

// seedSentinel activates the deepest feasible site with threshold 0:
// deepest because late ramps have the highest exit-rate bound (§3.3), so
// recovery starts where exits are most likely.
func (c *Controller) seedSentinel() {
	sites := c.Cfg.Sites
	if len(sites) == 0 {
		return
	}
	if err := c.Cfg.Activate(sites[len(sites)-1], ramp.StyleDefault); err != nil {
		panic("controller: sentinel activation failed: " + err.Error())
	}
}

// addAfterDeactivation implements the candidate-selection half of
// Algorithm 2 (Figure 11): consider sites after the latest
// positive-utility ramp P, split into intervals by the deactivated
// ramps, seed candidates at interval midpoints, and bound each
// candidate's exit rate by the summed profiled exit rates of the next
// deactivated ramp and all earlier deactivations.
func (c *Controller) addAfterDeactivation(windowN int, deactivated []deactivatedRamp) bool {
	cfg := c.Cfg
	// Depth of the latest surviving (positive) ramp.
	lastPositive := 0.0
	for _, r := range cfg.Active {
		if r.Site.Frac > lastPositive {
			lastPositive = r.Site.Frac
		}
	}
	// Candidate pool: feasible, inactive sites after P that keep a
	// minimum separation from active ramps (clustered ramps waste
	// budget: their exit sets overlap almost entirely, §4.5).
	var pool []model.RampSite
	for _, s := range cfg.Sites {
		if s.Frac <= lastPositive {
			continue
		}
		if c.tooClose(s) {
			continue
		}
		pool = append(pool, s)
	}
	if len(pool) == 0 {
		return false
	}

	// Interval boundaries: the deactivated ramp depths after P.
	var bounds []deactivatedRamp
	for _, d := range deactivated {
		if d.site.Frac > lastPositive {
			bounds = append(bounds, d)
		}
	}

	// upperExits bounds a candidate's window exit count: inputs that
	// exited at the next deactivated ramp downstream, plus all earlier
	// deactivations (those inputs would have reached this depth and
	// might have exited here).
	upperExits := func(frac float64) int {
		total := 0
		seenNext := false
		for _, b := range bounds {
			if b.site.Frac <= frac {
				total += b.exits // earlier deactivation
			} else if !seenNext {
				total += b.exits // the following deactivated ramp
				seenNext = true
			}
		}
		if total > windowN {
			total = windowN
		}
		return total
	}

	// Iteratively propose interval midpoints; on rejection move to later
	// candidates within each interval.
	lo := 0
	overheadMS := cfg.Model.Latency(1) * ramp.StyleDefault.OverheadFrac
	for lo < len(pool) {
		mid := (lo + len(pool) - 1) / 2
		cand := pool[mid]
		ub := upperExits(cand.Frac)
		utility := float64(ub)*savedMS(cfg.Model, cand) - float64(windowN-ub)*overheadMS
		if utility > 0 {
			if !cfg.WithinBudget(ramp.StyleDefault) {
				return false
			}
			if err := cfg.Activate(cand, ramp.StyleDefault); err != nil {
				return false
			}
			// Trial ramps start at threshold 0 (§3.3) and get tuned in
			// the next threshold round; nothing else to do here.
			return true
		}
		lo = mid + 1 // try later candidates
	}
	return false
}

// probeEarlier is the all-positive-utilities phase: if budget remains,
// add a trial ramp — alternating between the paper's rule (immediately
// before the highest-utility ramp, for earlier savings) and the midpoint
// of the largest uncovered depth interval (so coverage for hard inputs
// is re-established after deactivations; the following rounds' utilities
// decide whether the trial survives). With no budget left, shift the
// lowest-utility ramp one feasible position earlier (never touching the
// most positive ramp).
func (c *Controller) probeEarlier(utils []Utility) bool {
	cfg := c.Cfg
	if len(utils) == 0 {
		return false
	}
	best, worst := 0, 0
	for i, u := range utils {
		if u.Net() > utils[best].Net() {
			best = i
		}
		if u.Net() < utils[worst].Net() {
			worst = i
		}
	}
	if cfg.WithinBudget(ramp.StyleDefault) {
		c.probeClock++
		if c.probeClock%2 == 0 {
			if site, ok := c.largestGapSite(); ok {
				return cfg.Activate(site, ramp.StyleDefault) == nil
			}
		}
		// Add immediately before the highest-utility ramp.
		if site, ok := c.siteBefore(cfg.Active[best].Site); ok {
			return cfg.Activate(site, ramp.StyleDefault) == nil
		}
		return false
	}
	if worst == best || len(cfg.Active) < 2 {
		return false
	}
	if site, ok := c.siteBefore(cfg.Active[worst].Site); ok {
		style := cfg.Active[worst].Style
		threshold := cfg.Active[worst].Threshold
		cfg.Deactivate(worst)
		if err := cfg.Activate(site, style); err != nil {
			return false
		}
		// The shifted ramp keeps its threshold as a starting point; the
		// next tuning round refines it.
		for _, r := range cfg.Active {
			if r.Site.NodeID == site.NodeID {
				r.Threshold = threshold
			}
		}
		return true
	}
	return false
}

// largestGapSite returns the feasible, inactive site closest to the
// midpoint of the largest uncovered depth interval (between consecutive
// active ramps, or between the deepest ramp and the end of the model).
func (c *Controller) largestGapSite() (model.RampSite, bool) {
	cfg := c.Cfg
	// Active depths plus virtual boundaries.
	depths := []float64{0}
	for _, r := range cfg.Active {
		depths = append(depths, r.Site.Frac)
	}
	end := 0.97
	if n := len(cfg.Sites); n > 0 {
		end = cfg.Sites[n-1].Frac
	}
	depths = append(depths, end)
	gapLo, gapHi := 0.0, 0.0
	for i := 1; i < len(depths); i++ {
		if depths[i]-depths[i-1] > gapHi-gapLo {
			gapLo, gapHi = depths[i-1], depths[i]
		}
	}
	return c.siteNear(gapLo, gapHi)
}

// minRampSeparation is the minimum depth-fraction distance between two
// active ramps; closer ramps exit nearly identical input sets while
// doubling the overhead.
const minRampSeparation = 0.04

// tooClose reports whether a site is within minRampSeparation of any
// active ramp (or already active).
func (c *Controller) tooClose(s model.RampSite) bool {
	for _, r := range c.Cfg.Active {
		d := r.Site.Frac - s.Frac
		if d < 0 {
			d = -d
		}
		if d < minRampSeparation {
			return true
		}
	}
	return false
}

// siteBefore returns a feasible, inactive site strictly shallower than
// the given site: the site closest to the midpoint between the previous
// active ramp (or the model start) and the given site. Placing probes at
// gap midpoints closes coverage holes in O(log gap) rounds after
// deactivation storms instead of one adjacent site at a time.
func (c *Controller) siteBefore(site model.RampSite) (model.RampSite, bool) {
	cfg := c.Cfg
	prevActive := 0.0
	for _, r := range cfg.Active {
		if r.Site.Frac < site.Frac && r.Site.Frac > prevActive {
			prevActive = r.Site.Frac
		}
	}
	return c.siteNear(prevActive, site.Frac)
}

// siteNear returns the feasible, inactive site strictly between depths lo
// and hi, clear of every active ramp, that lies closest to their
// midpoint.
func (c *Controller) siteNear(lo, hi float64) (model.RampSite, bool) {
	mid := (lo + hi) / 2
	var found model.RampSite
	ok := false
	bestDist := 2.0
	for _, s := range c.Cfg.Sites {
		if s.Frac <= lo || s.Frac >= hi || c.tooClose(s) {
			continue
		}
		if dist := math.Abs(s.Frac - mid); dist < bestDist {
			bestDist, found, ok = dist, s, true
		}
	}
	return found, ok
}
