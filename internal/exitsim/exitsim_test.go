package exitsim

import (
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
		c := testProfile.Capability(d, 1.0)
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
	if got := testProfile.Capability(0, 1.0); got != 0 {
		t.Fatalf("Capability(0) = %v, want 0", got)
	}
}

func TestCapabilityQualityBoost(t *testing.T) {
	base := testProfile.Capability(0.4, 1.0)
	rich := testProfile.Capability(0.4, 1.08)
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
			e := testProfile.TrueErr(s, d, 1.0)
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
	if testProfile.TrueErr(s1, 0.3, 1.0) >= testProfile.TrueErr(s2, 0.3, 1.0) {
		t.Fatal("harder sample did not get higher true error")
	}
}

func TestErrScoreDeterministic(t *testing.T) {
	s := Sample{Difficulty: 0.4, MatchU: 0.5, NoiseKey: 123}
	a := testProfile.ErrScore(s, 0.3, 1.0)
	b := testProfile.ErrScore(s, 0.3, 1.0)
	if a != b {
		t.Fatal("ErrScore not deterministic")
	}
}

func TestErrScoreBounded(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := sampleFrom(r)
		for d := 0.05; d <= 1.0; d += 0.05 {
			e := testProfile.ErrScore(s, d, 1.0)
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
			m := testProfile.Matches(s, d, 1.0)
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
	// to the mean of (1 - TrueErr - Bias).
	r := rng.New(99)
	const n = 50000
	matches, expect := 0.0, 0.0
	for i := 0; i < n; i++ {
		s := sampleFrom(r)
		if testProfile.Matches(s, 0.5, 1.0) {
			matches++
		}
		p := 1 - testProfile.TrueErr(s, 0.5, 1.0) - s.Bias
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
	base, biased := 0, 0
	for i := 0; i < n; i++ {
		s := sampleFrom(r)
		s.Bias = 0
		if testProfile.Matches(s, 0.4, 1.0) {
			base++
		}
		s.Bias = 0.15
		if testProfile.Matches(s, 0.4, 1.0) {
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
	if cv.Capability(0.15, 1.0) <= nlp.Capability(0.15, 1.0) {
		t.Fatal("CV profile not more capable early than NLP")
	}
}

func TestProfileForLargerCVMoreCapable(t *testing.T) {
	small := ProfileFor(model.ResNet18(), KindVideo)
	large := ProfileFor(model.ResNet101(), KindVideo)
	if large.Capability(0.1, 1.0) <= small.Capability(0.1, 1.0) {
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

// TestObserveMatchesWrappers pins Observe at At's point to ErrScore and
// Matches bit for bit, over random samples, depths and qualities plus
// samples built to hit both score clamps and a negative match
// probability.
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
			wantErr, wantMatch := p.ErrScore(s, d, q), p.Matches(s, d, q)
			if err != wantErr || match != wantMatch {
				t.Fatalf("sample %d depth %v quality %v: Observe = (%v, %v), ErrScore/Matches = (%v, %v)",
					i, d, q, err, match, wantErr, wantMatch)
			}
			switch {
			case err == 0:
				clamped["score 0"] = true
			case err == 1:
				clamped["score 1"] = true
			}
			if 1-p.TrueErr(s, d, q)-s.Bias < 0 {
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

// BenchmarkObserve times observing one input at one ramp: Observe at a
// precomputed point against the ErrScore+Matches pair it replaces.
func BenchmarkObserve(b *testing.B) {
	p := ProfileFor(model.T5Large(), KindCNNDailyMail)
	r := rng.New(1)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = sampleFrom(r)
	}
	const depth, quality = 0.3, 1.0
	b.Run("observe", func(b *testing.B) {
		b.ReportAllocs()
		pt := p.At(depth, quality)
		for i := 0; b.Loop(); i++ {
			e, m := p.Observe(samples[i%len(samples)], pt)
			sinkErr += e
			sinkMatch = sinkMatch != m
		}
	})
	b.Run("errscore+matches", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			s := samples[i%len(samples)]
			sinkErr += p.ErrScore(s, depth, quality)
			sinkMatch = sinkMatch != p.Matches(s, depth, quality)
		}
	})
}
