// Package workload generates the request streams of §4.1: eight one-hour
// videos for CV classification, Amazon and IMDB review streams for NLP
// classification, and CNN/DailyMail and SQuAD sequences for generative
// serving. Each request carries an exitsim.Sample whose latent difficulty
// follows the temporal structure the paper identifies — high
// spatiotemporal continuity for video, weak continuity with category- and
// user-level regime shifts for NLP — because that structure is what makes
// continual adaptation necessary (Figure 5, Table 1).
//
// Streams are lazy: a Stream is a restartable generator, and Iter()
// returns a pull-based iterator that derives each request from the
// stream's seed on demand. Generating a million-request trace therefore
// costs O(1) memory; Materialize and Samples exist as compatibility
// shims for tests and small offline studies that want the whole slice.
package workload

import (
	"fmt"
	"strconv"

	"repro/internal/exitsim"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Request is one classification inference request.
type Request struct {
	ID        int
	ArrivalMS float64
	Sample    exitsim.Sample
}

// Stream is a classification workload: a name, a calibration kind, a
// length, and a restartable request generator. Every Iter() call starts
// a fresh deterministic pass over the same trace, so a stream can be
// served any number of times (vanilla, Apparate, baselines) with
// identical requests and no materialized state.
type Stream struct {
	Name string
	Kind exitsim.Kind

	n int
	// gen returns a fresh generator closure; the closure is called once
	// per request, in order, and must be deterministic given the
	// stream's construction parameters.
	gen func() func(i int) Request
}

// NewStream builds a lazy stream from a generator factory. n is the
// request count; gen must return a closure producing request i on its
// i-th call.
func NewStream(name string, kind exitsim.Kind, n int, gen func() func(i int) Request) *Stream {
	return &Stream{Name: name, Kind: kind, n: n, gen: gen}
}

// FromSlice wraps an explicit request slice in a Stream, for tests and
// callers that build traces by hand.
func FromSlice(name string, kind exitsim.Kind, reqs []Request) *Stream {
	return NewStream(name, kind, len(reqs), func() func(i int) Request {
		return func(i int) Request { return reqs[i] }
	})
}

// Len returns the number of requests.
func (s *Stream) Len() int { return s.n }

// Iter returns a fresh iterator over the stream's requests in arrival
// order.
func (s *Stream) Iter() *Iter {
	return &Iter{next: s.gen(), n: s.n}
}

// Iter is a pull-based pass over one stream; obtain one with
// Stream.Iter.
type Iter struct {
	next func(i int) Request
	i    int
	n    int
}

// Len returns the number of requests the pass yields in all.
func (it *Iter) Len() int { return it.n }

// Next returns the next request, or ok=false when the stream is
// exhausted.
func (it *Iter) Next() (Request, bool) {
	if it.i >= it.n {
		return Request{}, false
	}
	r := it.next(it.i)
	it.i++
	return r, true
}

// Materialize generates the full request slice — the compatibility shim
// for callers that need random access. It costs O(n) memory; the
// serving simulators consume Iter instead.
func (s *Stream) Materialize() []Request {
	out := make([]Request, 0, s.n)
	it := s.Iter()
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Samples returns just the samples, in order.
func (s *Stream) Samples() []exitsim.Sample {
	return s.SamplePrefix(s.n)
}

// SamplePrefix returns the first n samples — the bootstrap-set helper
// that avoids materializing the whole trace when only a prefix is
// needed.
func (s *Stream) SamplePrefix(n int) []exitsim.Sample {
	if n > s.n {
		n = s.n
	}
	out := make([]exitsim.Sample, 0, n)
	it := s.Iter()
	for len(out) < n {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r.Sample)
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Video returns a synthetic video-analytics workload: frames arriving at
// a fixed rate whose difficulty follows a mean-reverting
// (Ornstein-Uhlenbeck) walk with scene regimes. Eight distinct videos
// (id 0–7) differ in base difficulty (day vs. night urban scenes) and
// regime volatility, mirroring the corpus of [12, 34].
func Video(id, frames int, fps float64, seed uint64) *Stream {
	return videoSched(id, frames, fps, seed, nil)
}

// videoScheduleSalt decorrelates a scheduled video's arrival rng from
// its sample rng (which is seeded with seed^id*0x9e37 and must stay
// byte-identical with and without a schedule).
const videoScheduleSalt = 0xa5f152c9b1e44d7b

// videoSched is Video with an optional arrival-rate schedule: a nil
// schedule keeps the fixed frame rate; otherwise arrivals follow a
// rate-scheduled Poisson process at fps × Rate(t) (a camera whose
// ingest rate tracks activity). Sample generation is untouched, so the
// restartable-iterator contract holds for both forms.
func videoSched(id, frames int, fps float64, seed uint64, sched trace.Schedule) *Stream {
	if id < 0 || id >= numVideos {
		panic(fmt.Sprintf("workload: video id %d out of [0,7]", id))
	}
	gen := func() func(i int) Request {
		r := rng.New(seed ^ uint64(id)*0x9e37)
		// Day scenes (even ids) are easier than night scenes (odd ids).
		baseMu := 0.22 + 0.05*float64(id%4)
		if id%2 == 1 {
			baseMu += 0.16
		}
		const (
			theta = 0.025 // mean reversion strength
			sigma = 0.018 // per-frame volatility
		)
		mu := baseMu
		bias := 0.0
		sceneStart := 0
		d := mu
		var arrivals trace.Arrivals
		if sched != nil {
			// The arrival stream is seeded from the video seed directly
			// rather than split off r: the native path draws nothing for
			// its fixed-rate arrivals, so drawing here would perturb the
			// scene/difficulty trace and confound load studies that
			// compare the same video with and without a schedule.
			arrivals = trace.NewScheduled(fps, sched, rng.New(seed^uint64(id)*0x9e37^videoScheduleSalt))
		} else {
			arrivals = trace.NewFixedRate(fps)
		}
		nextSwitch := 1500 + r.Intn(2000)
		return func(i int) Request {
			if i == nextSwitch {
				// Scene change: new regime mean; novel scenes carry a
				// transient miscalibration bias for ramps trained on
				// bootstrap data, fading as the scene's appearance becomes
				// familiar again.
				mu = clamp(baseMu+(r.Float64()-0.35)*0.3, 0.05, 0.9)
				if r.Bool(0.3) && i > frames/10 {
					bias = r.Float64() * 0.05
				} else {
					bias = 0
				}
				sceneStart = i
				nextSwitch = i + 1500 + r.Intn(2000)
			}
			frameBias := bias * (1 - float64(i-sceneStart)/600)
			if frameBias < 0 {
				frameBias = 0
			}
			d = clamp(d+theta*(mu-d)+sigma*r.Norm(), 0.02, 1.15)
			// Per-frame difficulty spikes: occluded or small objects make
			// some frames hard even in easy scenes, so deep ramps always
			// see a trickle of exits.
			df := d
			if r.Bool(0.12) {
				df = clamp(d+r.Float64()*0.35, 0.02, 1.15)
			}
			return Request{
				ID:        i,
				ArrivalMS: arrivals.Next(),
				Sample: exitsim.Sample{
					Difficulty: df,
					MatchU:     r.Float64(),
					Bias:       frameBias,
					NoiseKey:   r.Uint64(),
				},
			}
		}
	}
	return NewStream(videoName(id), exitsim.KindVideo, frames, gen)
}

// Amazon returns the Amazon-reviews classification workload: requests
// ordered by product category, and within each category by frequent
// user, with MAF arrivals at meanQPS. Category changes shift the
// difficulty regime abruptly (weak continuity), and categories outside
// the bootstrap prefix carry miscalibration bias — the structure behind
// the paper's smaller NLP wins and frequent adaptation (§4.2).
func Amazon(n int, meanQPS float64, seed uint64) *Stream {
	return amazonSched(n, meanQPS, seed, nil)
}

// amazonSched is Amazon with an optional arrival-rate schedule
// replacing the native MAF process. The rng split feeding the arrival
// source is identical either way, so the difficulty stream is the same
// trace under either arrival process.
func amazonSched(n int, meanQPS float64, seed uint64, sched trace.Schedule) *Stream {
	gen := func() func(i int) Request {
		r := rng.New(seed)
		arrivals := scheduledOrNative(meanQPS, sched, r.Split())
		catMu := 0.0
		catBias := 0.0
		userOffset := 0.0
		catLeft, userLeft := 0, 0
		return func(i int) Request {
			if catLeft == 0 {
				catLeft = 2000 + r.Intn(8000)
				catMu = 0.22 + r.Float64()*0.33
				// Categories streamed after the bootstrap prefix may be
				// out-of-distribution for the trained ramps.
				if i > n/10 && r.Bool(0.3) {
					catBias = r.Float64() * 0.04
				} else {
					catBias = 0
				}
				userLeft = 0
			}
			if userLeft == 0 {
				userLeft = 20 + r.Intn(120)
				userOffset = r.Norm() * 0.08
			}
			d := clamp(catMu+userOffset+r.Norm()*0.17, 0.02, 1.2)
			catLeft--
			userLeft--
			return Request{
				ID:        i,
				ArrivalMS: arrivals.Next(),
				Sample: exitsim.Sample{
					Difficulty: d,
					MatchU:     r.Float64(),
					Bias:       catBias,
					NoiseKey:   r.Uint64(),
				},
			}
		}
	}
	return NewStream("amazon", exitsim.KindAmazon, n, gen)
}

// imdbSched returns the IMDB movie-review workload streamed sentence by
// sentence: sentences within one review share the review's difficulty
// level (mild continuity), while consecutive reviews are unrelated. A
// non-nil schedule replaces the native MAF arrival process.
func imdbSched(n int, meanQPS float64, seed uint64, sched trace.Schedule) *Stream {
	gen := func() func(i int) Request {
		r := rng.New(seed)
		arrivals := scheduledOrNative(meanQPS, sched, r.Split())
		reviewMu := 0.0
		reviewBias := 0.0
		sentLeft := 0
		return func(i int) Request {
			if sentLeft == 0 {
				sentLeft = 3 + r.Intn(12)
				reviewMu = 0.14 + r.Float64()*0.5
				if i > n/10 && r.Bool(0.2) {
					reviewBias = r.Float64() * 0.04
				} else {
					reviewBias = 0
				}
			}
			d := clamp(reviewMu+r.Norm()*0.13, 0.02, 1.2)
			sentLeft--
			return Request{
				ID:        i,
				ArrivalMS: arrivals.Next(),
				Sample: exitsim.Sample{
					Difficulty: d,
					MatchU:     r.Float64(),
					Bias:       reviewBias,
					NoiseKey:   r.Uint64(),
				},
			}
		}
	}
	return NewStream("imdb", exitsim.KindIMDB, n, gen)
}

// numVideos is the number of video workloads, video-0 through video-7.
const numVideos = 8

// videoName is the canonical name of video id.
func videoName(id int) string { return "video-" + strconv.Itoa(id) }

// Names lists every classification workload name in canonical order:
// the eight videos, then the two NLP streams. A name is a workload iff
// Names or GenNames lists it.
func Names() []string {
	out := make([]string, 0, numVideos+2)
	for id := 0; id < numVideos; id++ {
		out = append(out, videoName(id))
	}
	return append(out, "amazon", "imdb")
}

// GenNames lists every generative workload name in canonical order.
func GenNames() []string { return []string{"cnn-dailymail", "squad"} }

// IsGenerative reports whether the named workload drives the generative
// serving path (sequences and tokens) rather than classification
// requests.
func IsGenerative(name string) bool {
	return name == "cnn-dailymail" || name == "squad"
}

// IsVideo reports whether the named workload is one of the fixed-rate
// video streams (whose arrival rate is a frame rate, not a trace-derived
// QPS).
func IsVideo(name string) bool { return videoID(name) >= 0 }

// videoID returns the id of the video workload called name, or -1.
// Only the names Names lists match: "video-03" and "video-3x" are not
// video-3.
func videoID(name string) int {
	for id := 0; id < numVideos; id++ {
		if name == videoName(id) {
			return id
		}
	}
	return -1
}

// scheduledOrNative picks the arrival source for an NLP workload: the
// native bursty MAF process, or a rate-scheduled Poisson process when a
// schedule is set. Both consume the same dedicated rng split, so the
// choice never perturbs the difficulty stream drawn from the parent.
func scheduledOrNative(meanQPS float64, sched trace.Schedule, r *rng.Rand) trace.Arrivals {
	if sched != nil {
		return trace.NewScheduled(meanQPS, sched, r)
	}
	return trace.NewMAF(meanQPS, r)
}

// ByName builds a named classification workload ("video-0".."video-7",
// "amazon", "imdb") with n requests at the given rate.
func ByName(name string, n int, qps float64, seed uint64) (*Stream, error) {
	return ByNameSched(name, n, qps, seed, nil)
}

// ByNameSched builds a named classification workload whose arrival rate
// follows the schedule — multipliers over the workload's native rate —
// instead of the native stationary process. A nil schedule is exactly
// ByName. Scheduled streams satisfy the same restartable-iterator
// contract: every Iter() replays the identical arrivals and samples.
func ByNameSched(name string, n int, qps float64, seed uint64, sched trace.Schedule) (*Stream, error) {
	switch name {
	case "amazon":
		return amazonSched(n, qps, seed, sched), nil
	case "imdb":
		return imdbSched(n, qps, seed, sched), nil
	}
	if id := videoID(name); id >= 0 {
		return videoSched(id, n, qps, seed, sched), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}
