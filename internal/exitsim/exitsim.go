// Package exitsim models the semantic behavior of early-exit ramps
// without executing real DNNs. It is the simulator's substitution layer:
// every quantity Apparate's algorithms consume — a ramp's
// error/entropy score for an input, and whether the ramp's top prediction
// matches the original model's output — is produced by a calibrated
// stochastic model that preserves the structural properties the paper's
// algorithms rely on:
//
//  1. Deeper ramps produce lower error scores and higher oracle-match
//     probability for every input (monotone in depth), so "later ramps
//     almost always exhibit higher exit rates" (§3.3) holds.
//  2. Raising a ramp's threshold admits exits with strictly higher error
//     scores, so accuracy decreases and latency savings increase
//     monotonically in thresholds (§3.2, Figure 9).
//  3. Oracle matches are nested across depth via a shared per-input
//     uniform: if a shallow ramp matches the original model, so do all
//     deeper ramps. This makes "the earliest ramp that predicts the
//     correct response" (the paper's optimal exit, §2.2) well defined.
//  4. Workload drift can carry a *miscalibration bias*: ramps trained on
//     bootstrap data are overconfident on out-of-distribution regimes, so
//     the same error score implies a higher true mismatch probability.
//     This is the mechanism that makes one-time threshold tuning lose
//     8.3–23.9% accuracy (Table 1, Table 2) while continual tuning holds
//     the constraint.
package exitsim

import (
	"math"
)

// Sample is the latent, per-input state from which every ramp observation
// is derived deterministically.
type Sample struct {
	// Difficulty in [0, ~1.2]: how much model capability the input needs
	// for the ramp prediction to agree with the original model. Values
	// above the deepest capability mean the input can never exit
	// correctly ("hard" inputs, challenge C1).
	Difficulty float64
	// MatchU is the per-input uniform that couples oracle matches across
	// depths (nesting).
	MatchU float64
	// Bias is the regime miscalibration bias (>= 0): extra mismatch
	// probability invisible to the confidence score.
	Bias float64
	// NoiseKey seeds the per-(input, ramp) observation noise.
	NoiseKey uint64
}

// Profile calibrates exit behavior for one (model family, workload) pair.
type Profile struct {
	// CMax is the capability approached at full model depth.
	CMax float64
	// Gamma shapes capability vs depth: small values mean early ramps
	// are already capable (CV); values near 1 push capability late (NLP).
	Gamma float64
	// Steep is the logistic steepness mapping (difficulty − capability)
	// to an error score.
	Steep float64
	// NoiseSigma is the standard deviation of observation noise added to
	// the true error to form the score a ramp reports.
	NoiseSigma float64
}

// capability returns the ramp capability at a depth fraction in (0, 1]
// and a ramp-architecture quality multiplier (see At).
func (p Profile) capability(depth, quality float64) float64 {
	if depth <= 0 {
		return 0
	}
	c := p.CMax * math.Pow(depth, p.Gamma) * quality
	if c > 0.995 {
		c = 0.995
	}
	return c
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Point is a ramp position as the profile sees it: the depth fraction
// and the capability there. A ramp's point is fixed for its lifetime, so
// callers that observe many inputs at one ramp compute it once with At
// and pass it to Observe, instead of re-deriving the capability per input.
type Point struct{ Depth, Cap float64 }

// At returns the point of a ramp at the given depth fraction and
// quality multiplier (1.0 = Apparate's default lightweight ramp; richer
// ramps are slightly above 1).
func (p Profile) At(depth, quality float64) Point {
	return Point{Depth: depth, Cap: p.capability(depth, quality)}
}

// Observe returns what the ramp at pt reports for the sample: its error
// score — the entropy-style confidence signal Apparate compares against
// thresholds (§2.2), the true error plus bounded observation noise,
// clamped to [0, 1] — and whether its top prediction matches the
// original model's output. Both are deterministic for a given sample,
// and matches are nested in depth: for a fixed sample and quality, a
// match at depth d1 implies a match at every d2 >= d1.
func (p Profile) Observe(s Sample, pt Point) (err float64, match bool) {
	te := p.trueErr(s, pt)
	return p.errScore(s, pt.Depth, te), matches(s, te)
}

// trueErr returns the latent error of the ramp at pt for the sample:
// the probability that the ramp's top prediction disagrees with the
// original model, before miscalibration bias.
func (p Profile) trueErr(s Sample, pt Point) float64 {
	return logistic(p.Steep * (s.Difficulty - pt.Cap))
}

// splitmix is the SplitMix64 finalizer used for deterministic
// per-(input, ramp) noise.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashNorm returns a deterministic standard-normal variate keyed by
// (key, depth).
func hashNorm(key uint64, depth float64) float64 {
	x := key ^ math.Float64bits(depth)
	u1 := float64(splitmix(x)>>11) / (1 << 53)
	u2 := float64(splitmix(x+1)>>11) / (1 << 53)
	if u1 >= 1 {
		u1 = math.Nextafter(1, 0)
	}
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// errScore is the error score given the sample's true error te at depth.
func (p Profile) errScore(s Sample, depth, te float64) float64 {
	e := te + p.NoiseSigma*hashNorm(s.NoiseKey, depth)
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}

// matches reports the oracle match given the sample's true error te.
func matches(s Sample, te float64) bool {
	prob := 1 - te - s.Bias
	if prob < 0 {
		prob = 0
	}
	return s.MatchU < prob
}
