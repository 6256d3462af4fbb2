package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exitsim"
)

func TestVideoBasics(t *testing.T) {
	s := Video(0, 1000, 30, 1)
	if s.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", s.Len())
	}
	if s.Kind != exitsim.KindVideo {
		t.Fatalf("kind = %v", s.Kind)
	}
	reqs := s.Materialize()
	if len(reqs) != 1000 {
		t.Fatalf("materialized %d requests, want 1000", len(reqs))
	}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Sample.Difficulty < 0 || r.Sample.Difficulty > 1.2 {
			t.Fatalf("difficulty out of range: %v", r.Sample.Difficulty)
		}
	}
	// Fixed 30fps arrivals.
	if math.Abs(reqs[1].ArrivalMS-1000.0/30) > 1e-9 {
		t.Fatalf("frame spacing = %v", reqs[1].ArrivalMS)
	}
}

// TestIterMatchesMaterialize pins the streaming contract: a pull-based
// pass yields exactly the materialized trace, and a second Iter() call
// replays it from the start.
func TestIterMatchesMaterialize(t *testing.T) {
	for _, s := range []*Stream{Video(1, 800, 30, 3), Amazon(800, 100, 3), IMDB(800, 100, 3)} {
		reqs := s.Materialize()
		for pass := 0; pass < 2; pass++ {
			it := s.Iter()
			for i := 0; ; i++ {
				r, ok := it.Next()
				if !ok {
					if i != len(reqs) {
						t.Fatalf("%s pass %d: iterator ended at %d, want %d", s.Name, pass, i, len(reqs))
					}
					break
				}
				if r != reqs[i] {
					t.Fatalf("%s pass %d: request %d differs between Iter and Materialize", s.Name, pass, i)
				}
			}
		}
	}
}

func TestSamplePrefix(t *testing.T) {
	s := Amazon(2000, 100, 4)
	full := s.Samples()
	pre := s.SamplePrefix(100)
	if len(pre) != 100 {
		t.Fatalf("SamplePrefix len = %d", len(pre))
	}
	for i := range pre {
		if pre[i] != full[i] {
			t.Fatalf("SamplePrefix diverges at %d", i)
		}
	}
	if got := s.SamplePrefix(5000); len(got) != 2000 {
		t.Fatalf("SamplePrefix over length = %d, want 2000", len(got))
	}
}

func TestFromSlice(t *testing.T) {
	reqs := []Request{{ID: 0, ArrivalMS: 1}, {ID: 1, ArrivalMS: 2}}
	s := FromSlice("manual", exitsim.KindVideo, reqs)
	got := s.Materialize()
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("FromSlice round-trip mismatch: %+v", got)
	}
}

func TestVideoDeterministic(t *testing.T) {
	a := Video(3, 500, 30, 7).Materialize()
	b := Video(3, 500, 30, 7).Materialize()
	for i := range a {
		if a[i].Sample != b[i].Sample {
			t.Fatalf("video not deterministic at request %d", i)
		}
	}
}

func TestVideosDiffer(t *testing.T) {
	a := Video(0, 100, 30, 1).Materialize()
	b := Video(1, 100, 30, 1).Materialize()
	same := 0
	for i := range a {
		if a[i].Sample.Difficulty == b[i].Sample.Difficulty {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("videos 0 and 1 share %d/100 difficulties", same)
	}
}

func TestVideoNightHarder(t *testing.T) {
	mean := func(s *Stream) float64 {
		sum := 0.0
		it := s.Iter()
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			sum += r.Sample.Difficulty
		}
		return sum / float64(s.Len())
	}
	day := mean(Video(0, 20000, 30, 5))
	night := mean(Video(1, 20000, 30, 5))
	if night <= day {
		t.Fatalf("night video (%.3f) not harder than day (%.3f)", night, day)
	}
}

func TestVideoTemporalContinuity(t *testing.T) {
	// Lag-1 autocorrelation of video difficulty must be high (the paper's
	// spatiotemporal-similarity argument), and much higher than Amazon's.
	autocorr := func(d []float64) float64 {
		n := len(d)
		mean := 0.0
		for _, v := range d {
			mean += v
		}
		mean /= float64(n)
		num, den := 0.0, 0.0
		for i := 0; i < n-1; i++ {
			num += (d[i] - mean) * (d[i+1] - mean)
		}
		for _, v := range d {
			den += (v - mean) * (v - mean)
		}
		return num / den
	}
	diffs := func(s *Stream) []float64 {
		out := make([]float64, s.Len())
		for i, r := range s.Materialize() {
			out[i] = r.Sample.Difficulty
		}
		return out
	}
	vid := autocorr(diffs(Video(0, 10000, 30, 9)))
	amz := autocorr(diffs(Amazon(10000, 100, 9)))
	// Per-frame difficulty spikes (occlusions) cap the raw lag-1
	// autocorrelation; the scene-level signal must still dominate.
	if vid < 0.5 {
		t.Fatalf("video autocorrelation %v < 0.5", vid)
	}
	if vid <= amz {
		t.Fatalf("video continuity (%v) not above amazon (%v)", vid, amz)
	}
}

func TestVideoIDRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Video(8,...) did not panic")
		}
	}()
	Video(8, 10, 30, 1)
}

func TestAmazonBasics(t *testing.T) {
	s := Amazon(5000, 100, 2)
	if s.Len() != 5000 || s.Kind != exitsim.KindAmazon {
		t.Fatalf("bad stream: len=%d kind=%v", s.Len(), s.Kind)
	}
	arr := make([]float64, s.Len())
	for i, r := range s.Materialize() {
		arr[i] = r.ArrivalMS
	}
	if !sort.Float64sAreSorted(arr) {
		t.Fatal("amazon arrivals not sorted")
	}
}

func TestAmazonBootstrapUnbiased(t *testing.T) {
	s := Amazon(20000, 100, 3)
	reqs := s.Materialize()
	for i := 0; i < s.Len()/10-1; i++ {
		if reqs[i].Sample.Bias != 0 {
			t.Fatalf("bootstrap-prefix request %d has bias %v", i, reqs[i].Sample.Bias)
		}
	}
	// Some later requests must carry bias (drift that forces retuning).
	biased := 0
	for _, r := range reqs[s.Len()/10:] {
		if r.Sample.Bias > 0 {
			biased++
		}
	}
	if biased == 0 {
		t.Fatal("no post-bootstrap bias anywhere in the stream")
	}
}

func TestIMDBSentenceContinuity(t *testing.T) {
	s := IMDB(5000, 100, 4)
	if s.Kind != exitsim.KindIMDB {
		t.Fatalf("kind = %v", s.Kind)
	}
	// Sentences of one review cluster: lag-1 absolute difficulty change
	// should be smaller than for a shuffled stream on average.
	d := make([]float64, s.Len())
	for i, r := range s.Materialize() {
		d[i] = r.Sample.Difficulty
	}
	adjacent := 0.0
	for i := 1; i < len(d); i++ {
		adjacent += math.Abs(d[i] - d[i-1])
	}
	adjacent /= float64(len(d) - 1)
	// Compare with distance between far-apart entries.
	far := 0.0
	for i := 0; i+100 < len(d); i++ {
		far += math.Abs(d[i] - d[i+100])
	}
	far /= float64(len(d) - 100)
	if adjacent >= far {
		t.Fatalf("IMDB adjacent diff %v not below far diff %v", adjacent, far)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"amazon", "imdb", "video-0", "video-7"} {
		s, err := ByName(name, 100, 50, 1)
		if err != nil || s.Len() != 100 {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("yelp", 10, 1, 1); err == nil {
		t.Fatal("ByName accepted unknown workload")
	}
	if _, err := ByName("video-9", 10, 1, 1); err == nil {
		t.Fatal("ByName accepted out-of-range video")
	}
}

func TestSamplesAccessor(t *testing.T) {
	s := Amazon(50, 100, 5)
	samples := s.Samples()
	if len(samples) != 50 {
		t.Fatalf("Samples len = %d", len(samples))
	}
	reqs := s.Materialize()
	for i := range samples {
		if samples[i] != reqs[i].Sample {
			t.Fatal("Samples mismatch")
		}
	}
}

func TestGenStreams(t *testing.T) {
	for _, name := range []string{"cnn-dailymail", "squad"} {
		g, err := GenByName(name, 200, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 200 {
			t.Fatalf("%s len = %d", name, g.Len())
		}
		for _, r := range g.Materialize() {
			if r.PromptLen <= 0 || r.GenLen <= 0 {
				t.Fatalf("%s: non-positive lengths %+v", name, r)
			}
		}
	}
	if _, err := GenByName("xsum", 10, 1, 1); err == nil {
		t.Fatal("GenByName accepted unknown workload")
	}
}

// TestGenStreamTokens: Tokens is the GenLen sum over a full pass, for a
// generated stream, an empty one and an explicit slice.
func TestGenStreamTokens(t *testing.T) {
	for _, s := range []*GenStream{
		CNNDailyMail(300, 2, 5),
		SQuAD(0, 2, 5),
		GenFromSlice("lens", exitsim.KindSQuAD, []GenRequest{{GenLen: 3}, {ID: 1}, {ID: 2, GenLen: 9}}),
	} {
		want := 0
		for _, r := range s.Prefix(s.Len()) {
			want += r.GenLen
		}
		if got := s.Tokens(); got != want {
			t.Fatalf("%s (n=%d): Tokens() = %d, want the GenLen sum %d", s.Name, s.Len(), got, want)
		}
	}
}

func TestSQuADShorterThanCNN(t *testing.T) {
	cnn := CNNDailyMail(2000, 2, 7)
	sq := SQuAD(2000, 2, 7)
	meanGen := func(g *GenStream) float64 {
		sum := 0
		it := g.Iter()
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			sum += r.GenLen
		}
		return float64(sum) / float64(g.Len())
	}
	if meanGen(sq) >= meanGen(cnn) {
		t.Fatal("SQuAD generations not shorter than CNN/DailyMail")
	}
}

func TestTokenSamplerDeterministic(t *testing.T) {
	req := GenRequest{SeqSeed: 42, BaseDifficulty: 0.4, GenLen: 50}
	a, b := NewTokenSampler(req), NewTokenSampler(req)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("token sampler diverged at token %d", i)
		}
	}
}

func TestTokenSamplerContinuity(t *testing.T) {
	// Token difficulties must be correlated within a sequence.
	check := func(seed uint64) bool {
		req := GenRequest{SeqSeed: seed, BaseDifficulty: 0.4}
		ts := NewTokenSampler(req)
		prev := ts.Next().Difficulty
		jumps := 0
		for i := 0; i < 100; i++ {
			d := ts.Next().Difficulty
			if math.Abs(d-prev) > 0.4 {
				jumps++
			}
			prev = d
		}
		return jumps < 5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenSamplerBounds(t *testing.T) {
	req := GenRequest{SeqSeed: 9, BaseDifficulty: 0.9, Bias: 0.04}
	ts := NewTokenSampler(req)
	for i := 0; i < 500; i++ {
		s := ts.Next()
		if s.Difficulty < 0.02 || s.Difficulty > 1.2 {
			t.Fatalf("token difficulty out of range: %v", s.Difficulty)
		}
		if s.Bias != 0.04 {
			t.Fatalf("token bias %v, want 0.04", s.Bias)
		}
	}
}
