// Package ramp models early-exit ramps: their architectures (§3.1,
// Figure 8), placement over a model's feasible sites, the
// worst-case-latency budget that bounds the active set (the paper's "ramp
// aggression" parameter), and evaluation of a ramp configuration against
// workload samples.
package ramp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/model"
)

// Style describes a ramp architecture. Apparate's default is the
// shallowest viable ramp — a lightweight pooling operator feeding the
// model's final FC layer (§3.1). Richer styles raise exit capability
// slightly but cost more latency per ramp, shrinking the number of ramps
// a budget admits (Figure 8 shows the default winning 1.3–5.4×).
type Style struct {
	Name string
	// OverheadFrac is one ramp's added latency as a fraction of the host
	// model's inference latency (applies at any batch size).
	OverheadFrac float64
	// Quality multiplies exit capability (1.0 = default ramp).
	Quality float64
	// ParamFrac is the ramp's parameter count as a fraction of the host
	// model's parameters (memory accounting; DeeBERT-style ramps inflate
	// BERT-base memory ~6.6% over 12 ramps).
	ParamFrac float64
}

// Predefined ramp styles.
var (
	// StyleDefault is Apparate's pooling + final-FC ramp.
	StyleDefault = Style{Name: "default", OverheadFrac: 0.004, Quality: 1.0, ParamFrac: 0.0035}
	// StyleConvAugmented adds 1–2 conv layers before pooling (the CV
	// "some/fewer ramps" alternative of Figure 8).
	StyleConvAugmented = Style{Name: "conv-augmented", OverheadFrac: 0.012, Quality: 1.03, ParamFrac: 0.012}
	// StyleTwoFC adds two width-reducing FC layers (BERT alternative 1).
	StyleTwoFC = Style{Name: "two-fc", OverheadFrac: 0.010, Quality: 1.02, ParamFrac: 0.009}
	// StyleDeeBERTPooler replicates the full BERT pooler block plus
	// dropout (DeeBERT's ramp; BERT alternative 2).
	StyleDeeBERTPooler = Style{Name: "deebert-pooler", OverheadFrac: 0.015, Quality: 1.04, ParamFrac: 0.0055}
)

// Ramp is an instantiated ramp at a model site with its exit threshold.
type Ramp struct {
	Site      model.RampSite
	Style     Style
	Threshold float64
	// Point is the ramp's exitsim point under its configuration's
	// profile, computed once by Activate: every input observed at this
	// ramp goes through Profile.Observe at it.
	Point exitsim.Point
}

// Config is a model's early-exit configuration: the active ramps (sorted
// by depth), the candidate sites, and the latency budget.
type Config struct {
	Model *model.Model
	// Profile calibrates exit semantics for the workload being served.
	Profile exitsim.Profile
	// BudgetFrac bounds the summed ramp overhead as a fraction of the
	// model's worst-case (all-ramps, no-exit) latency; the paper's
	// default is 2%.
	BudgetFrac float64
	// Sites are all feasible ramp sites of the model, depth-ordered.
	Sites []model.RampSite
	// Active is the deployed ramp set, depth-ordered.
	Active []*Ramp
	// Rule selects the exit strategy (§5); nil means the default
	// entropy rule. The controller's window replay models the entropy
	// rule, so with stricter rules (patience, windowed) tuned
	// thresholds are conservative: deployed exits are a subset of the
	// modeled ones, keeping the accuracy guarantee while estimating
	// savings optimistically.
	Rule exitrule.Rule

	// perRamp is the storage of Evaluate's observations, reused by every
	// call.
	perRamp []Observation
}

// NewConfig returns a configuration with no active ramps.
func NewConfig(m *model.Model, p exitsim.Profile, budgetFrac float64) *Config {
	return &Config{
		Model:      m,
		Profile:    p,
		BudgetFrac: budgetFrac,
		Sites:      m.FeasibleRamps(),
	}
}

// MaxRamps returns how many ramps of the given style the budget admits.
func (c *Config) MaxRamps(s Style) int {
	if s.OverheadFrac <= 0 {
		panic("ramp: style with non-positive overhead")
	}
	n := int(math.Floor(c.BudgetFrac/s.OverheadFrac + 1e-9))
	if n > len(c.Sites) {
		n = len(c.Sites)
	}
	return n
}

// OverheadFrac returns the summed overhead fraction of the active set.
func (c *Config) OverheadFrac() float64 {
	total := 0.0
	for _, r := range c.Active {
		total += r.Style.OverheadFrac
	}
	return total
}

// WithinBudget reports whether adding a ramp of the given style would
// keep the active set within budget.
func (c *Config) WithinBudget(s Style) bool {
	return c.OverheadFrac()+s.OverheadFrac <= c.BudgetFrac+1e-9
}

// siteActive reports whether a site already hosts a ramp.
func (c *Config) siteActive(site model.RampSite) bool {
	for _, r := range c.Active {
		if r.Site.NodeID == site.NodeID {
			return true
		}
	}
	return false
}

// Activate deploys a ramp at the given site with threshold 0 (no exiting
// until tuned, §3.1). It returns an error if the site is already active
// or the budget would be exceeded.
func (c *Config) Activate(site model.RampSite, s Style) error {
	if c.siteActive(site) {
		return fmt.Errorf("ramp: site node %d already active", site.NodeID)
	}
	if !c.WithinBudget(s) {
		return fmt.Errorf("ramp: activating at node %d exceeds budget %.3f", site.NodeID, c.BudgetFrac)
	}
	pt := c.Profile.At(site.Frac, s.Quality*site.Quality)
	c.Active = append(c.Active, &Ramp{Site: site, Style: s, Point: pt})
	sort.Slice(c.Active, func(i, j int) bool { return c.Active[i].Site.Frac < c.Active[j].Site.Frac })
	return nil
}

// Deactivate removes the ramp at active index i.
func (c *Config) Deactivate(i int) {
	if i < 0 || i >= len(c.Active) {
		panic(fmt.Sprintf("ramp: Deactivate index %d out of range", i))
	}
	c.Active = append(c.Active[:i], c.Active[i+1:]...)
}

// EvenSpacing selects k sites evenly spaced (by list position) across the
// candidates — the paper's initial deployment policy (§3.1). The returned
// sites are depth-ordered and distinct.
func EvenSpacing(sites []model.RampSite, k int) []model.RampSite {
	if k <= 0 || len(sites) == 0 {
		return nil
	}
	if k >= len(sites) {
		out := make([]model.RampSite, len(sites))
		copy(out, sites)
		return out
	}
	out := make([]model.RampSite, 0, k)
	seen := make(map[int]bool)
	for i := 0; i < k; i++ {
		// Quantile positions, offset to avoid clustering at the ends.
		pos := (2*i + 1) * len(sites) / (2 * k)
		if pos >= len(sites) {
			pos = len(sites) - 1
		}
		if !seen[pos] {
			seen[pos] = true
			out = append(out, sites[pos])
		}
	}
	return out
}

// DeployInitial activates the budget-maximal, evenly spaced ramp set with
// all thresholds at 0.
func (c *Config) DeployInitial(s Style) {
	c.Active = nil
	for _, site := range EvenSpacing(c.Sites, c.MaxRamps(s)) {
		if err := c.Activate(site, s); err != nil {
			panic("ramp: DeployInitial budget accounting inconsistent: " + err.Error())
		}
	}
}

// Observation is the per-ramp signal recorded for one input: the error
// score the ramp reported and whether its top prediction matched the
// original model. With Apparate, these are recorded for every input at
// every active ramp irrespective of exits (§3.2).
type Observation struct {
	Err   float64
	Match bool
}

// Outcome is the result of pushing one input through the configured
// model.
type Outcome struct {
	// ExitIndex is the index in Active of the ramp that exited the
	// result, or -1 if the result came from the full model.
	ExitIndex int
	// ServeMS is the serving-time latency of the released result
	// (excludes queuing): prefix latency to the exit point plus the
	// overhead of active ramps at or before it. Non-exiting inputs pay
	// the full model plus all ramp overheads.
	ServeMS float64
	// Correct reports whether the released result matches the original
	// model's output (non-exits are correct by construction).
	Correct bool
	// PerRamp holds one observation per active ramp, in depth order. It
	// is the configuration's buffer, which the next Evaluate overwrites:
	// a caller that keeps the observations must copy them.
	PerRamp []Observation
}

// Evaluate runs one sample through the configuration at the given batch
// size. Thresholds are applied by the caller-visible semantics of §2.2:
// a ramp exits when its error score is strictly below its threshold, so
// threshold 0 never exits. With the default rule it allocates nothing
// once the buffer behind Outcome.PerRamp has grown to the active set.
func (c *Config) Evaluate(s exitsim.Sample, batch int) Outcome {
	if cap(c.perRamp) < len(c.Active) {
		c.perRamp = make([]Observation, len(c.Active))
	}
	out := Outcome{ExitIndex: -1, PerRamp: c.perRamp[:len(c.Active)]}
	overheadMS := 0.0
	modelLat := c.Model.Latency(batch)
	rule := c.Rule
	if rule == nil {
		rule = exitrule.Entropy{}
	}
	state := rule.NewState()
	for i, r := range c.Active {
		errScore, match := c.Profile.Observe(s, r.Point)
		out.PerRamp[i] = Observation{Err: errScore, Match: match}
		overheadMS += r.Style.OverheadFrac * modelLat
		if out.ExitIndex < 0 && state.Decide(errScore, r.Threshold) {
			out.ExitIndex = i
			out.ServeMS = c.Model.PrefixLatency(r.Site.NodeID, batch) + overheadMS
			out.Correct = match
		}
	}
	if out.ExitIndex < 0 {
		out.ServeMS = modelLat + c.OverheadFrac()*modelLat
		out.Correct = true
	}
	return out
}

// WorstCaseMS returns the latency of a non-exiting input at the given
// batch size under the current active set.
func (c *Config) WorstCaseMS(batch int) float64 {
	return c.Model.Latency(batch) * (1 + c.OverheadFrac())
}

// Thresholds returns the active thresholds in depth order.
func (c *Config) Thresholds() []float64 {
	out := make([]float64, len(c.Active))
	for i, r := range c.Active {
		out[i] = r.Threshold
	}
	return out
}

// SetThresholds assigns thresholds in depth order. It panics on a length
// mismatch.
func (c *Config) SetThresholds(ts []float64) {
	if len(ts) != len(c.Active) {
		panic(fmt.Sprintf("ramp: SetThresholds got %d values for %d ramps", len(ts), len(c.Active)))
	}
	for i, r := range c.Active {
		r.Threshold = ts[i]
	}
}

// TrainingMinutes estimates ramp-training wall time on a single A6000
// (§3.1 reports "a few minutes"): proportional to bootstrap size and the
// ramp parameter share, with parallel backprop across ramps.
func TrainingMinutes(m *model.Model, nRamps, bootstrapSamples int, s Style) float64 {
	perSampleMS := m.BaseLatencyMS * 0.3 // forward through frozen model
	rampCost := 1 + 0.2*s.ParamFrac/StyleDefault.ParamFrac*float64(nRamps)/10
	return float64(bootstrapSamples) * perSampleMS * rampCost / 60000
}
