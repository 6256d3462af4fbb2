package exitsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rng"
)

func sampleFrom(r *rng.Rand) Sample {
	return Sample{
		Difficulty: r.Float64() * 1.2,
		MatchU:     r.Float64(),
		Bias:       r.Float64() * 0.1,
		NoiseKey:   r.Uint64(),
	}
}

var testProfile = Profile{CMax: 0.95, Gamma: 0.3, Steep: 12, NoiseSigma: 0.02}

func TestCapabilityMonotoneInDepth(t *testing.T) {
	prev := -1.0
	for d := 0.05; d <= 1.0; d += 0.05 {
		c := testProfile.capability(d, 1.0)
		if c <= prev {
			t.Fatalf("capability not increasing at depth %v", d)
		}
		if c < 0 || c > 0.995 {
			t.Fatalf("capability %v out of range at depth %v", c, d)
		}
		prev = c
	}
}

func TestCapabilityZeroDepth(t *testing.T) {
	if got := testProfile.capability(0, 1.0); got != 0 {
		t.Fatalf("capability(0) = %v, want 0", got)
	}
}

func TestCapabilityQualityBoost(t *testing.T) {
	base := testProfile.capability(0.4, 1.0)
	rich := testProfile.capability(0.4, 1.08)
	if rich <= base {
		t.Fatal("richer ramp style did not raise capability")
	}
}

func TestTrueErrMonotoneDepth(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := sampleFrom(r)
		prev := 2.0
		for d := 0.05; d <= 1.0; d += 0.05 {
			e := testProfile.trueErr(s, testProfile.At(d, 1.0))
			if e > prev {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrueErrMonotoneDifficulty(t *testing.T) {
	s1 := Sample{Difficulty: 0.2}
	s2 := Sample{Difficulty: 0.6}
	pt := testProfile.At(0.3, 1.0)
	if testProfile.trueErr(s1, pt) >= testProfile.trueErr(s2, pt) {
		t.Fatal("harder sample did not get higher true error")
	}
}

func TestErrScoreDeterministic(t *testing.T) {
	s := Sample{Difficulty: 0.4, MatchU: 0.5, NoiseKey: 123}
	pt := testProfile.At(0.3, 1.0)
	a, am := testProfile.Observe(s, pt)
	b, bm := testProfile.Observe(s, pt)
	if a != b || am != bm {
		t.Fatal("Observe not deterministic")
	}
}

func TestErrScoreBounded(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := sampleFrom(r)
		for d := 0.05; d <= 1.0; d += 0.05 {
			e, _ := testProfile.Observe(s, testProfile.At(d, 1.0))
			if e < 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesNestedInDepth(t *testing.T) {
	// Property 3: a match at a shallow depth implies matches at all
	// deeper depths (fixed quality).
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := sampleFrom(r)
		matched := false
		for d := 0.05; d <= 1.0; d += 0.01 {
			_, m := testProfile.Observe(s, testProfile.At(d, 1.0))
			if matched && !m {
				return false
			}
			if m {
				matched = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchRateCalibrated(t *testing.T) {
	// Over many samples at fixed depth, match frequency should be close
	// to the mean of (1 - trueErr - Bias).
	r := rng.New(99)
	const n = 50000
	pt := testProfile.At(0.5, 1.0)
	matches, expect := 0.0, 0.0
	for i := 0; i < n; i++ {
		s := sampleFrom(r)
		if _, m := testProfile.Observe(s, pt); m {
			matches++
		}
		p := 1 - testProfile.trueErr(s, pt) - s.Bias
		if p < 0 {
			p = 0
		}
		expect += p
	}
	got, want := matches/n, expect/n
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("match rate %v, want ~%v", got, want)
	}
}

func TestBiasReducesMatches(t *testing.T) {
	r := rng.New(7)
	const n = 20000
	pt := testProfile.At(0.4, 1.0)
	base, biased := 0, 0
	for i := 0; i < n; i++ {
		s := sampleFrom(r)
		s.Bias = 0
		if _, m := testProfile.Observe(s, pt); m {
			base++
		}
		s.Bias = 0.15
		if _, m := testProfile.Observe(s, pt); m {
			biased++
		}
	}
	if biased >= base {
		t.Fatalf("bias did not reduce matches: %d vs %d", biased, base)
	}
}

func TestProfileForCVEarlierThanNLP(t *testing.T) {
	cv := ProfileFor(model.ResNet50(), KindVideo)
	nlp := ProfileFor(model.BERTBase(), KindAmazon)
	// At a shallow depth, CV capability must exceed NLP capability:
	// that is what produces the paper's CV >> NLP win gap.
	if cv.capability(0.15, 1.0) <= nlp.capability(0.15, 1.0) {
		t.Fatal("CV profile not more capable early than NLP")
	}
}

func TestProfileForLargerCVMoreCapable(t *testing.T) {
	small := ProfileFor(model.ResNet18(), KindVideo)
	large := ProfileFor(model.ResNet101(), KindVideo)
	if large.capability(0.1, 1.0) <= small.capability(0.1, 1.0) {
		t.Fatal("larger CV model not relatively more capable early")
	}
}

func TestProfileForQuantizedLessCapable(t *testing.T) {
	base := ProfileFor(model.BERTBase(), KindAmazon)
	quant := ProfileFor(model.QuantizedBERTBase(), KindAmazon)
	if quant.CMax >= base.CMax {
		t.Fatal("quantized model capability not reduced")
	}
}

func TestProfileForNLPSizesShareShape(t *testing.T) {
	a := ProfileFor(model.BERTBase(), KindAmazon)
	b := ProfileFor(model.BERTLarge(), KindAmazon)
	if a.Gamma != b.Gamma || a.CMax != b.CMax {
		t.Fatal("NLP profiles should share relative shape across sizes")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindVideo, KindAmazon, KindIMDB, KindCNNDailyMail, KindSQuAD}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if !KindCNNDailyMail.IsGenerative() || KindVideo.IsGenerative() {
		t.Fatal("IsGenerative misclassifies kinds")
	}
}

// refObserve is the observation model written out from its formulas,
// without the package's helpers: the capability at (depth, quality),
// the latent error as the logistic of Steep·(Difficulty − capability),
// the score as that error plus NoiseSigma times a standard normal keyed
// by (NoiseKey, depth) and clamped to [0, 1], and the match as MatchU <
// 1 − te − Bias. te is the latent error, returned for clamp coverage.
func refObserve(p Profile, s Sample, depth, quality float64) (score float64, match bool, te float64) {
	c := 0.0
	if depth > 0 {
		c = math.Min(p.CMax*math.Pow(depth, p.Gamma)*quality, 0.995)
	}
	te = 1 / (1 + math.Exp(-(p.Steep * (s.Difficulty - c))))

	// The noise: a Box–Muller normal from two SplitMix64-finalized
	// uniforms keyed by the sample's noise key xor the depth's bits.
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	key := s.NoiseKey ^ math.Float64bits(depth)
	u1 := math.Min(float64(mix(key)>>11)/(1<<53), math.Nextafter(1, 0))
	u2 := float64(mix(key+1)>>11) / (1 << 53)
	noise := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
	score = math.Max(0, math.Min(1, te+p.NoiseSigma*noise))

	return score, s.MatchU < math.Max(0, 1-te-s.Bias), te
}

// TestObserveMatchesWrappers pins Observe at At's point to refObserve
// bit for bit, over random samples, depths and qualities plus samples
// built to hit both score clamps and a negative match probability.
func TestObserveMatchesWrappers(t *testing.T) {
	r := rng.New(5)
	samples := []Sample{
		{Difficulty: 0, MatchU: 0.5, NoiseKey: 1},   // score clamps at 0
		{Difficulty: 5, MatchU: 0.5, NoiseKey: 2},   // score clamps at 1
		{Difficulty: 1.2, MatchU: 0, Bias: 1.5},     // match probability < 0
		{Difficulty: 0.3, MatchU: 0.999, Bias: 0.9}, // probability < 0 on shallow ramps only
		{Difficulty: 0.5, MatchU: 0.5, NoiseKey: 1 << 63},
	}
	for i := 0; i < 4000; i++ {
		samples = append(samples, sampleFrom(r))
	}
	clamped := map[string]bool{}
	for i, s := range samples {
		d := r.Float64()
		if i%50 == 49 {
			d = 0 // zero depth: zero capability
		}
		q := 0.9 + 0.2*r.Float64()
		for _, p := range []Profile{testProfile, {CMax: 0.96, Gamma: 0.22, Steep: 25, NoiseSigma: 0.02}} {
			err, match := p.Observe(s, p.At(d, q))
			wantErr, wantMatch, te := refObserve(p, s, d, q)
			if err != wantErr || match != wantMatch {
				t.Fatalf("sample %d depth %v quality %v: Observe = (%v, %v), reference = (%v, %v)",
					i, d, q, err, match, wantErr, wantMatch)
			}
			switch {
			case err == 0:
				clamped["score 0"] = true
			case err == 1:
				clamped["score 1"] = true
			}
			if 1-te-s.Bias < 0 {
				clamped["prob < 0"] = true
			}
		}
	}
	for _, c := range []string{"score 0", "score 1", "prob < 0"} {
		if !clamped[c] {
			t.Fatalf("no sample reached %s", c)
		}
	}
}

// Benchmark sinks, so the compiler cannot drop the observations.
var (
	sinkErr   float64
	sinkMatch bool
)

// BenchmarkObserve times observing one input at one ramp at a
// precomputed point.
func BenchmarkObserve(b *testing.B) {
	p := ProfileFor(model.T5Large(), KindCNNDailyMail)
	r := rng.New(1)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = sampleFrom(r)
	}
	b.ReportAllocs()
	pt := p.At(0.3, 1.0)
	for i := 0; b.Loop(); i++ {
		e, m := p.Observe(samples[i%len(samples)], pt)
		sinkErr += e
		sinkMatch = sinkMatch != m
	}
}
