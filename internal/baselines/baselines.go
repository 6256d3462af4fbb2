// Package baselines implements every comparison system from the paper's
// evaluation (§4.1, §4.4): offline-optimal exiting, the realistic online
// optimal, existing static EE models (BranchyNet, DeeBERT and their
// favorably tuned variants), and two-layer inference systems
// (Tabi/FilterForward-style).
package baselines

import (
	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
)

// OptimalHandler is the §2.2 oracle: every input exits at the earliest
// feasible ramp whose prediction matches the original model, with no ramp
// overheads. It upper-bounds any EE system's latency wins.
type OptimalHandler struct {
	Model   *model.Model
	Profile exitsim.Profile
	sites   []model.RampSite
}

// NewOptimal returns the oracle handler.
func NewOptimal(m *model.Model, p exitsim.Profile) *OptimalHandler {
	return &OptimalHandler{Model: m, Profile: p, sites: m.FeasibleRamps()}
}

// BatchLatency is the vanilla model latency (the oracle adds no ramps to
// plan around).
func (h *OptimalHandler) BatchLatency(b int) float64 { return h.Model.Latency(b) }

// Serve exits at the earliest correct ramp; inputs with no correct ramp
// run the full model.
func (h *OptimalHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	for _, site := range h.sites {
		if h.Profile.Matches(s, site.Frac, site.Quality) {
			return ramp.Outcome{
				ExitIndex: site.NodeID,
				ServeMS:   h.Model.PrefixLatency(site.NodeID, b),
				Correct:   true,
			}
		}
	}
	return ramp.Outcome{ExitIndex: -1, ServeMS: h.Model.Latency(b), Correct: true}
}

// Variant selects a static-EE tuning policy (§4.4, Table 2).
type Variant int

// Static EE tuning variants.
const (
	// SharedThreshold is the default recommendation of BranchyNet and
	// DeeBERT: one threshold for every ramp, tuned once on bootstrap
	// data.
	SharedThreshold Variant = iota
	// PerRamp ("+") removes the shared-threshold restriction, still
	// tuned once on bootstrap data.
	PerRamp
	// OracleTuned ("opt") performs one-time tuning on the *test* data
	// itself: the best static configuration in hindsight.
	OracleTuned
)

// StaticEE builds an existing-EE-style handler: always-on ramps at every
// feasible site (the prescribed architectures place ramps after every
// layer; totalOverheadFrac spreads their cost, e.g. 22% for BranchyNet
// and 19.5% for DeeBERT per §2.3-C1), with one-time threshold tuning and
// no runtime adaptation.
func StaticEE(m *model.Model, p exitsim.Profile, style ramp.Style,
	totalOverheadFrac float64, variant Variant,
	bootstrap, test []exitsim.Sample, accBudget float64) *serving.StaticEEHandler {

	sites := m.FeasibleRamps()
	perRamp := style
	perRamp.OverheadFrac = totalOverheadFrac / float64(len(sites))
	cfg := ramp.NewConfig(m, p, totalOverheadFrac+1e-6)
	for _, s := range sites {
		if err := cfg.Activate(s, perRamp); err != nil {
			panic("baselines: static EE activation failed: " + err.Error())
		}
	}

	tuneOn := bootstrap
	// The upstream EE papers recommend one-time tuning against a looser
	// dev-set criterion than production's 1% (BranchyNet and DeeBERT
	// report operating points with multi-point accuracy drops); the
	// default and "+" variants reflect that, while "opt" applies the
	// strict budget with oracle test-set knowledge (§4.4).
	if variant != OracleTuned {
		accBudget *= 3
	} else {
		tuneOn = test
	}
	tab := controller.NewTable(cfg, tuneOn)
	switch variant {
	case SharedThreshold:
		t := tuneShared(cfg, tab, accBudget)
		ts := make([]float64, len(cfg.Active))
		for i := range ts {
			ts[i] = t
		}
		cfg.SetThresholds(ts)
	case PerRamp, OracleTuned:
		cfg.SetThresholds(tunePerRamp(cfg, tab, accBudget))
	}
	return &serving.StaticEEHandler{Cfg: cfg}
}

// tuneShared finds the largest shared threshold meeting the accuracy
// budget on the tuning table (savings are monotone in the threshold, so
// largest-feasible is best).
func tuneShared(cfg *ramp.Config, tab controller.Table, accBudget float64) float64 {
	best := 0.0
	ts := make([]float64, len(cfg.Active))
	for i := 0; i <= 100; i++ {
		t := float64(i) / 100
		for j := range ts {
			ts[j] = t
		}
		if controller.EvalThresholds(tab, ts).AccLoss <= accBudget {
			best = t
		}
	}
	return best
}

// tunePerRamp greedily raises individual thresholds (coordinate ascent
// with a fixed 0.02 step) while the accuracy budget holds on the tuning
// table. Each candidate is evaluated in full: the += / -= 0.02 pair is
// not an exact restore, so the drifting threshold values are part of
// the result.
func tunePerRamp(cfg *ramp.Config, tab controller.Table, accBudget float64) []float64 {
	n := len(cfg.Active)
	ts := make([]float64, n)
	curSav := controller.EvalThresholds(tab, ts).SavingFrac
	for {
		bestRamp := -1
		bestSav := curSav
		for i := 0; i < n; i++ {
			if ts[i] >= 1 {
				continue
			}
			ts[i] += 0.02
			ev := controller.EvalThresholds(tab, ts)
			ts[i] -= 0.02
			if ev.AccLoss <= accBudget && ev.SavingFrac > bestSav {
				bestRamp, bestSav = i, ev.SavingFrac
			}
		}
		if bestRamp < 0 {
			return ts
		}
		ts[bestRamp] += 0.02
		curSav = bestSav
	}
}

// TwoLayerHandler models Tabi [73] / FilterForward [17]: a compressed
// model serves every input, and low-confidence inputs cascade to the base
// model. Following §4.2, the comparison is favorable to the baseline: no
// hosting overhead for the compressed model, no inter-stage queuing, and
// scheduling plans with the base model's latency alone.
type TwoLayerHandler struct {
	Model   *model.Model
	Profile exitsim.Profile
	// CompressedFrac is the compressed model's latency as a fraction of
	// the base model's.
	CompressedFrac float64
	// EquivDepth is the base-model depth whose capability the compressed
	// model matches (a distilled model is far more capable than an early
	// ramp of equal cost).
	EquivDepth float64
	// Threshold is the confidence cutoff below which the compressed
	// result is released.
	Threshold float64
}

// NewTwoLayer builds the two-layer baseline and tunes its confidence
// threshold once on bootstrap data to meet the accuracy budget. The
// compressed stage is FilterForward's tiny forwarding model for CV
// (~35% of base latency) and a Tabi-style distilled transformer for NLP
// (~55%, the DistilBERT-to-BERT ratio).
func NewTwoLayer(m *model.Model, p exitsim.Profile, bootstrap []exitsim.Sample, accBudget float64) *TwoLayerHandler {
	h := &TwoLayerHandler{
		Model: m, Profile: p,
		CompressedFrac: 0.55,
		EquivDepth:     0.62,
	}
	if m.Family.IsCV() {
		h.CompressedFrac = 0.35
		h.EquivDepth = 0.70
	}
	// Largest threshold whose bootstrap accuracy loss stays in budget.
	best := 0.0
	for i := 0; i <= 100; i++ {
		t := float64(i) / 100
		wrong := 0
		for _, s := range bootstrap {
			if p.ErrScore(s, h.EquivDepth, 1.0) < t && !p.Matches(s, h.EquivDepth, 1.0) {
				wrong++
			}
		}
		if float64(wrong)/float64(len(bootstrap)) <= accBudget {
			best = t
		}
	}
	h.Threshold = best
	return h
}

// BatchLatency plans with the base model only (favorable to the
// baseline).
func (h *TwoLayerHandler) BatchLatency(b int) float64 { return h.Model.Latency(b) }

// Serve releases the compressed model's answer for confident inputs and
// cascades the rest through the full model.
func (h *TwoLayerHandler) Serve(s exitsim.Sample, b int) ramp.Outcome {
	cLat := h.Model.Latency(b) * h.CompressedFrac
	if h.Profile.ErrScore(s, h.EquivDepth, 1.0) < h.Threshold {
		return ramp.Outcome{
			ExitIndex: 0,
			ServeMS:   cLat,
			Correct:   h.Profile.Matches(s, h.EquivDepth, 1.0),
		}
	}
	return ramp.Outcome{
		ExitIndex: -1,
		ServeMS:   cLat + h.Model.Latency(b),
		Correct:   true,
	}
}
