package genserve

import (
	"math"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// VanillaGen never exits: every token runs the full decode step.
type VanillaGen struct{}

// Decide runs the full pass.
func (VanillaGen) Decide(exitsim.Sample) (bool, float64, float64, bool) {
	return false, 1, 0, true
}

// ObserveFlush is a no-op.
func (VanillaGen) ObserveFlush() {}

// OptimalGen is the §4.3 oracle: each token exits at the earliest
// feasible ramp producing the original model's token, with no ramp
// overhead and no parallel-decode penalty (the engine's penalty applies
// only on non-exits, which the oracle takes only when no ramp matches).
type OptimalGen struct {
	Profile exitsim.Profile
	pts     []exitsim.Point // one per feasible site, shallowest first
}

// NewOptimalGen builds the oracle over the model's feasible ramp sites.
func NewOptimalGen(m *model.Model, p exitsim.Profile) *OptimalGen {
	sites := m.FeasibleRamps()
	o := &OptimalGen{Profile: p, pts: make([]exitsim.Point, len(sites))}
	for i, site := range sites {
		o.pts[i] = p.At(site.Frac, site.Quality)
	}
	return o
}

// Decide exits at the earliest matching site.
func (o *OptimalGen) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	for _, pt := range o.pts {
		if _, match := o.Profile.Observe(s, pt); match {
			return true, pt.Depth, 0, true
		}
	}
	return false, 1, 0, true
}

// ObserveFlush is a no-op.
func (o *OptimalGen) ObserveFlush() {}

// FREEGen models FREE [14]: one fixed ramp whose position and threshold
// are selected once on a bootstrap prefix (default: the first 3% of
// requests) to maximize savings under the accuracy constraint; the whole
// model is fine-tuned for that ramp (a small quality boost) and nothing
// adapts afterwards — the source of its 5.5% accuracy loss under drift.
type FREEGen struct {
	Profile   exitsim.Profile
	Depth     float64
	Threshold float64
	Overhead  float64
	Quality   float64
	// pt is the chosen site's point, at Quality times the site's
	// intrinsic quality.
	pt exitsim.Point
}

// NewFREE selects the ramp position and threshold on the bootstrap
// prefix of the stream.
// accBudget is the sequence-score budget; it is converted to the
// corresponding token-level mismatch budget internally.
func NewFREE(m *model.Model, p exitsim.Profile, stream *workload.GenStream, accBudget float64) *FREEGen {
	f := &FREEGen{Profile: p, Quality: 1.05, Overhead: ramp.StyleDefault.OverheadFrac}
	tokenBudget := TokenBudget(accBudget)
	nBoot := stream.Len() * 3 / 100
	if nBoot < 1 {
		nBoot = 1
	}
	// Collect bootstrap token samples (materializing only the prefix).
	var samples []exitsim.Sample
	for _, req := range stream.Prefix(nBoot) {
		ts := workload.NewTokenSampler(req)
		for i := 0; i < req.GenLen; i++ {
			samples = append(samples, ts.Next())
		}
	}
	sites := m.FeasibleRamps()
	bestSaving := -1.0
	for _, site := range sites {
		pt := p.At(site.Frac, f.Quality*site.Quality)
		for ti := 0; ti <= 100; ti += 2 {
			t := float64(ti) / 100
			wrong, exits := 0, 0
			for _, s := range samples {
				if e, match := p.Observe(s, pt); e < t {
					exits++
					if !match {
						wrong++
					}
				}
			}
			if float64(wrong)/float64(len(samples)) > tokenBudget {
				break // loss is monotone in t; higher t only worsens it
			}
			saving := float64(exits) * (1 - site.Frac)
			if saving > bestSaving {
				bestSaving = saving
				f.Depth = site.Frac
				f.Threshold = t
				f.pt = pt
			}
		}
	}
	return f
}

// Decide applies the fixed ramp.
func (f *FREEGen) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	if e, match := f.Profile.Observe(s, f.pt); e < f.Threshold {
		return true, f.Depth, f.Overhead, match
	}
	return false, 1, f.Overhead, true
}

// ObserveFlush is a no-op: FREE collects no runtime feedback.
func (f *FREEGen) ObserveFlush() {}

// feedbackWindow is the number of tokens ApparateGen's feedback window
// holds, and the cadence of its adaptation rounds.
const feedbackWindow = 192

// tokenObs is one token's feedback at the active ramp.
type tokenObs struct {
	err   float64
	match bool
}

// ApparateGen manages a single adjustable ramp (the paper uses a ramp
// budget of 1 for generative scenarios to protect tail TPT, §4.4).
// Thresholds retune every window on token feedback; the ramp position is
// chosen among a coarse set of candidate sites (quantiles of the feasible
// positions, the spirit of Algorithm 2's interval midpoints): an initial
// sweep measures each candidate once, after which the policy sits at the
// best exponentially-weighted utility and periodically re-probes the
// others so workload drift can move the ramp. Feedback within a
// parallel-decoding instance is truncated at the first token whose exit
// deviates from the original model, since later comparisons may reflect
// cascading errors (§3.4).
//
// The feedback window is a fixed ring of the last feedbackWindow tokens,
// allocated once: once it is full each new token overwrites the oldest,
// and a ramp move empties it. Tuning and the utility estimate only count
// over the window, so the order of its slots never matters, and Decide
// allocates nothing.
type ApparateGen struct {
	Model     *model.Model
	Profile   exitsim.Profile
	Sites     []model.RampSite
	SiteIdx   int
	Threshold float64
	Overhead  float64
	AccBudget float64

	window      []tokenObs // feedback ring; slots [0, filled) are live
	head        int        // slot the next feedback token overwrites
	filled      int
	sinceAdjust int
	divergence  bool

	candidates []int     // site indices under consideration
	ewma       []float64 // per-candidate utility estimate
	visited    []bool
	cur        int // index into candidates
	probeClock int

	// TuneRounds and MoveRounds count adaptation actions.
	TuneRounds int
	MoveRounds int

	// pt is the active site's exitsim point, recomputed on every move.
	pt exitsim.Point
}

// NewApparateGen starts with the ramp mid-model and no exiting.
// accBudget is the sequence-score budget; the token-level mismatch budget
// enforced on feedback windows is derived via TokenBudget.
func NewApparateGen(m *model.Model, p exitsim.Profile, accBudget float64) *ApparateGen {
	sites := m.FeasibleRamps()
	// Candidate positions at quantiles of the feasible sites.
	quantiles := []float64{0.02, 0.08, 0.16, 0.25, 0.38, 0.5, 0.68, 0.85}
	cands := make([]int, 0, len(quantiles))
	seen := map[int]bool{}
	for _, q := range quantiles {
		idx := int(q * float64(len(sites)-1))
		if !seen[idx] {
			seen[idx] = true
			cands = append(cands, idx)
		}
	}
	a := &ApparateGen{
		Model: m, Profile: p, Sites: sites,
		Overhead:   ramp.StyleDefault.OverheadFrac,
		AccBudget:  TokenBudget(accBudget),
		window:     make([]tokenObs, feedbackWindow),
		candidates: cands,
		ewma:       make([]float64, len(cands)),
		visited:    make([]bool, len(cands)),
	}
	// Start the sweep at the middle candidate.
	a.moveTo(len(cands) / 2)
	return a
}

// moveTo places the ramp at candidate i with an empty feedback window.
func (a *ApparateGen) moveTo(i int) {
	a.cur = i
	a.SiteIdx = a.candidates[i]
	site := a.Sites[a.SiteIdx]
	a.pt = a.Profile.At(site.Frac, site.Quality)
	a.head, a.filled = 0, 0
}

// Decide evaluates the token at the active ramp, records feedback, and
// runs the adaptation loops on their cadences.
func (a *ApparateGen) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	e, match := a.Profile.Observe(s, a.pt)
	exit := e < a.Threshold

	// Token-level feedback, truncated at the first in-instance
	// divergence.
	if !a.divergence {
		a.record(tokenObs{err: e, match: match})
		if exit && !match {
			a.divergence = true
		}
	}

	a.sinceAdjust++
	if a.sinceAdjust >= feedbackWindow {
		a.sinceAdjust = 0
		a.adapt()
	}
	return exit, a.pt.Depth, a.Overhead, !exit || match
}

// ObserveFlush closes a parallel-decoding instance, re-arming feedback.
func (a *ApparateGen) ObserveFlush() { a.divergence = false }

// record adds one token's feedback to the window ring.
func (a *ApparateGen) record(o tokenObs) {
	a.window[a.head] = o
	a.head++
	if a.head == len(a.window) {
		a.head = 0
	}
	if a.filled < len(a.window) {
		a.filled++
	}
}

// tune picks the largest grid threshold ti/100 whose windowed loss fits
// the budget. One pass buckets each mismatch at the first threshold that
// exits it; a walk up the grid then keeps a running count of exiting
// mismatches and stops at the first threshold over budget.
func (a *ApparateGen) tune() {
	if a.filled == 0 {
		return
	}
	var wrongAt [102]int // wrongAt[101]: mismatches no grid threshold exits
	for _, o := range a.window[:a.filled] {
		if !o.match {
			wrongAt[gridBucket(o.err)]++
		}
	}
	n := float64(a.filled)
	best, wrong := 0.0, 0
	for ti := 0; ti <= 100; ti++ {
		wrong += wrongAt[ti]
		if float64(wrong)/n <= a.AccBudget {
			best = float64(ti) / 100
		} else {
			break // monotone in t
		}
	}
	a.Threshold = best
	a.TuneRounds++
}

// gridBucket returns the first grid index ti in [0, 100] whose threshold
// float64(ti)/100 err is strictly below, or 101 if there is none. The
// scan starts at int(err*100), which never passes the answer: err below
// ti/100 keeps err*100 below ti+1 even after rounding. It then steps up
// with the exact comparison tune's grid makes, so rounding in ti/100 or
// err*100 cannot move a token to another bucket.
func gridBucket(err float64) int {
	ti := 0
	if err > 0 {
		ti = int(math.Min(err*100, 101))
	}
	for ti <= 100 && !(err < float64(ti)/100) {
		ti++
	}
	return ti
}

// adapt retunes the threshold, folds the window's utility into the
// current candidate's estimate, and decides where the ramp sits next:
// unvisited candidates first (the sweep), then the best estimate, with a
// periodic probe of the stalest alternative so drift can be tracked. The
// threshold survives moves — error scores are calibrated against match
// probability at any depth, so the accuracy guarantee carries over while
// the next tune refines it on fresh data.
func (a *ApparateGen) adapt() {
	a.tune()
	exits := 0
	for _, o := range a.window[:a.filled] {
		if o.err < a.Threshold {
			exits++
		}
	}
	n := a.filled
	if n == 0 {
		return
	}
	base := a.Model.BaseLatencyMS
	utility := (float64(exits)*(1-a.pt.Depth)*base - float64(n-exits)*a.Overhead*base) / float64(n)

	if a.visited[a.cur] {
		a.ewma[a.cur] = 0.6*a.ewma[a.cur] + 0.4*utility
	} else {
		a.ewma[a.cur] = utility
		a.visited[a.cur] = true
	}

	next := a.cur
	if unvisited := a.firstUnvisited(); unvisited >= 0 {
		next = unvisited
	} else {
		best := 0
		for i := range a.ewma {
			if a.ewma[i] > a.ewma[best] {
				best = i
			}
		}
		next = best
		// Periodically re-probe a neighboring candidate so the
		// estimates around the incumbent stay current under drift;
		// distant candidates would cost a full window of foregone exits
		// for little information.
		a.probeClock++
		if a.probeClock%8 == 0 {
			if (a.probeClock/8)%2 == 0 && best > 0 {
				next = best - 1
			} else if best < len(a.candidates)-1 {
				next = best + 1
			}
		}
	}
	if next != a.cur {
		a.moveTo(next)
		a.MoveRounds++
	}
}

func (a *ApparateGen) firstUnvisited() int {
	for i, v := range a.visited {
		if !v {
			return i
		}
	}
	return -1
}
