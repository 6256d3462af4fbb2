package workload

import (
	"fmt"

	"repro/internal/exitsim"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GenRequest is one generative request: a prompt to prefill and a number
// of tokens to decode. Per-token difficulty is derived deterministically
// from SeqSeed by a TokenSampler.
type GenRequest struct {
	ID        int
	ArrivalMS float64
	PromptLen int
	GenLen    int
	SeqSeed   uint64
	// BaseDifficulty is the sequence's difficulty level around which
	// token difficulties fluctuate.
	BaseDifficulty float64
	// Bias is the sequence-level miscalibration bias.
	Bias float64
}

// GenStream is a generative workload: like Stream, a restartable lazy
// generator rather than a materialized slice.
type GenStream struct {
	Name string
	Kind exitsim.Kind

	n   int
	gen func() func(i int) GenRequest
}

// Len returns the number of requests.
func (s *GenStream) Len() int { return s.n }

// Iter returns a fresh iterator over the stream's requests in arrival
// order.
func (s *GenStream) Iter() *GenIter {
	return &GenIter{next: s.gen(), n: s.n}
}

// GenIter is a pull-based pass over one generative stream.
type GenIter struct {
	next func(i int) GenRequest
	i    int
	n    int
}

// Next returns the next request, or ok=false when exhausted.
func (it *GenIter) Next() (GenRequest, bool) {
	if it.i >= it.n {
		return GenRequest{}, false
	}
	r := it.next(it.i)
	it.i++
	return r, true
}

// Prefix materializes the first n requests — the bootstrap helper for
// policies tuned on a stream prefix (FREE's one-time tuning).
func (s *GenStream) Prefix(n int) []GenRequest {
	if n > s.n {
		n = s.n
	}
	out := make([]GenRequest, 0, n)
	it := s.Iter()
	for len(out) < n {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Tokens returns the stream's total generation length, the sum of GenLen
// over every request, from one pass of the generator: the exact size of
// a run's per-token record.
func (s *GenStream) Tokens() int {
	total := 0
	next := s.gen()
	for i := 0; i < s.n; i++ {
		total += next(i).GenLen
	}
	return total
}

// Materialize generates the full request slice (compatibility shim).
func (s *GenStream) Materialize() []GenRequest { return s.Prefix(s.n) }

// GenFromSlice wraps an explicit request slice in a GenStream — the
// generative counterpart of FromSlice, for tests and custom traces.
// Requests must already be in arrival order.
func GenFromSlice(name string, kind exitsim.Kind, reqs []GenRequest) *GenStream {
	cp := append([]GenRequest(nil), reqs...)
	return &GenStream{Name: name, Kind: kind, n: len(cp), gen: func() func(i int) GenRequest {
		return func(i int) GenRequest { return cp[i] }
	}}
}

// TokenSampler produces the per-token samples of one sequence. Token
// difficulties follow an AR(1) around the sequence's base difficulty:
// auto-regressive generation gives tokens high continuity (§4.3), which
// is why generative adaptation closes most of the gap to optimal.
type TokenSampler struct {
	r    *rng.Rand
	mu   float64
	bias float64
	d    float64
}

// NewTokenSampler returns the sampler for a request. Sampling is
// deterministic given the request.
func NewTokenSampler(req GenRequest) *TokenSampler {
	return &TokenSampler{
		r:    rng.New(req.SeqSeed),
		mu:   req.BaseDifficulty,
		bias: req.Bias,
		d:    req.BaseDifficulty,
	}
}

// Next returns the sample for the next token.
func (t *TokenSampler) Next() exitsim.Sample {
	const (
		rho   = 0.85
		sigma = 0.06
	)
	t.d = clamp(t.mu+rho*(t.d-t.mu)+sigma*t.r.Norm(), 0.02, 1.2)
	return exitsim.Sample{
		Difficulty: t.d,
		MatchU:     t.r.Float64(),
		Bias:       t.bias,
		NoiseKey:   t.r.Uint64(),
	}
}

func genStream(name string, kind exitsim.Kind, n int, qps float64, seed uint64,
	promptLo, promptHi, genLo, genHi int, baseMu, muSpread float64) *GenStream {
	gen := func() func(i int) GenRequest {
		r := rng.New(seed)
		arrivals := trace.NewPoisson(qps, r.Split())
		return func(i int) GenRequest {
			// Sequences outside the bootstrap prefix can be
			// out-of-distribution for statically tuned ramps (topic drift):
			// some carry a miscalibration bias, and the topic mix drifts
			// harder over the stream — the structure that penalizes FREE's
			// one-time tuning (§4.4) while Apparate retunes.
			bias := 0.0
			if i > n/10 && r.Bool(0.15) {
				bias = r.Float64() * 0.04
			}
			drift := 0.30 * float64(i) / float64(n)
			return GenRequest{
				ID:             i,
				ArrivalMS:      arrivals.Next(),
				PromptLen:      promptLo + r.Intn(promptHi-promptLo+1),
				GenLen:         genLo + r.Intn(genHi-genLo+1),
				SeqSeed:        r.Uint64(),
				BaseDifficulty: clamp(baseMu+drift+(r.Float64()-0.5)*muSpread, 0.05, 1.0),
				Bias:           bias,
			}
		}
	}
	return &GenStream{Name: name, Kind: kind, n: n, gen: gen}
}

// CNNDailyMail returns the text-summarization workload: long prompts,
// medium-length abstractive summaries, Poisson arrivals configured to
// saturate resources (§4.1).
func CNNDailyMail(n int, qps float64, seed uint64) *GenStream {
	return genStream("cnn-dailymail", exitsim.KindCNNDailyMail, n, qps, seed,
		400, 800, 45, 90, 0.30, 0.30)
}

// SQuAD returns the question-answering workload: shorter prompts and
// short extractive answers.
func SQuAD(n int, qps float64, seed uint64) *GenStream {
	return genStream("squad", exitsim.KindSQuAD, n, qps, seed,
		120, 400, 4, 30, 0.28, 0.28)
}

// GenByName builds a named generative workload ("cnn-dailymail",
// "squad").
func GenByName(name string, n int, qps float64, seed uint64) (*GenStream, error) {
	switch name {
	case "cnn-dailymail":
		return CNNDailyMail(n, qps, seed), nil
	case "squad":
		return SQuAD(n, qps, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown generative workload %q", name)
}
