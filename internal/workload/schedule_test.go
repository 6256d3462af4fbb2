package workload

import (
	"math"
	"testing"

	"repro/internal/exitsim"
	"repro/internal/trace"
)

func mustSchedule(t *testing.T, spec string) trace.Schedule {
	t.Helper()
	s, err := trace.ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduledStreamsRestartable extends the restartable-iterator
// contract to scheduled workloads: two Iter() passes over the same
// scheduled stream must replay identical requests — arrivals AND
// samples — for every workload class. Cluster dispatch replay (and the
// autoscale planning pass) depend on this.
func TestScheduledStreamsRestartable(t *testing.T) {
	sched := mustSchedule(t, "phases:10x1/10x4")
	for _, name := range []string{"video-0", "amazon", "imdb"} {
		s, err := ByNameSched(name, 2000, 40, 9, sched)
		if err != nil {
			t.Fatal(err)
		}
		a, b := s.Iter(), s.Iter()
		for i := 0; i < 2000; i++ {
			ra, oka := a.Next()
			rb, okb := b.Next()
			if !oka || !okb {
				t.Fatalf("%s: iterator ended early at %d", name, i)
			}
			if ra != rb {
				t.Fatalf("%s: restarted pass diverged at request %d", name, i)
			}
		}
	}
}

// TestScheduledStreamKeepsSampleTrace checks that scheduling a
// workload changes only the arrival process: the difficulty trace must
// be the request-for-request trace of the unscheduled stream, because
// the scheduled arrival source never draws from the sample rng (NLP
// workloads hand it the split the MAF source would have consumed;
// video seeds it from the stream seed directly). Without this, a
// burst-absorption study would confound the load change with a
// different difficulty trace.
func TestScheduledStreamKeepsSampleTrace(t *testing.T) {
	sched := mustSchedule(t, "square:30/0.5/3")
	for _, name := range []string{"video-0", "amazon", "imdb"} {
		native, err := ByName(name, 1000, 40, 4)
		if err != nil {
			t.Fatal(err)
		}
		scheduled, err := ByNameSched(name, 1000, 40, 4, sched)
		if err != nil {
			t.Fatal(err)
		}
		a, b := native.Iter(), scheduled.Iter()
		arrivalsDiffer := false
		for i := 0; i < 1000; i++ {
			ra, _ := a.Next()
			rb, _ := b.Next()
			if ra.Sample != rb.Sample {
				t.Fatalf("%s: scheduling perturbed sample %d", name, i)
			}
			if ra.ArrivalMS != rb.ArrivalMS {
				arrivalsDiffer = true
			}
		}
		if !arrivalsDiffer {
			t.Fatalf("%s: schedule left the arrival process unchanged", name)
		}
	}
}

// TestScheduledStreamModulatesRate checks the end-to-end effect: a
// video stream under a 1x/4x phase schedule must put far more requests
// in the high phases than the low ones.
func TestScheduledStreamModulatesRate(t *testing.T) {
	s, err := ByNameSched("video-0", 6000, 30, 2, mustSchedule(t, "phases:10x1/10x4"))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0, 0
	it := s.Iter()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if math.Mod(r.ArrivalMS/1000, 20) < 10 {
			lo++
		} else {
			hi++
		}
	}
	if hi < 3*lo {
		t.Fatalf("high phases got %d requests vs %d in low phases; want ~4x", hi, lo)
	}
}

// TestWithoutSamplesKeepsArrivals pins the sample-free pass: for every
// classification workload, native and under a rate schedule, it yields
// the full pass's IDs and bit-identical arrival times with every Sample
// zero, and taking it leaves the stream's own passes as they were.
func TestWithoutSamplesKeepsArrivals(t *testing.T) {
	const n = 4000 // past video's first scene change and amazon's first category
	for _, spec := range []string{"", "square:30/0.5/2"} {
		var sched trace.Schedule
		if spec != "" {
			sched = mustSchedule(t, spec)
		}
		for _, name := range Names() {
			s, err := ByNameSched(name, n, 40, 11, sched)
			if err != nil {
				t.Fatal(err)
			}
			bare := s.WithoutSamples()
			if bare.Len() != s.Len() || bare.Name != s.Name || bare.Kind != s.Kind {
				t.Fatalf("%s %q: bare stream %q/%v/%d, want %q/%v/%d", name, spec,
					bare.Name, bare.Kind, bare.Len(), s.Name, s.Kind, s.Len())
			}
			full, it := s.Iter(), bare.Iter()
			sampled := 0
			for i := 0; ; i++ {
				r, ok := full.Next()
				b, bok := it.Next()
				if ok != bok {
					t.Fatalf("%s %q: passes end apart at request %d", name, spec, i)
				}
				if !ok {
					break
				}
				if b.ID != r.ID || math.Float64bits(b.ArrivalMS) != math.Float64bits(r.ArrivalMS) {
					t.Fatalf("%s %q: request %d is %d@%v bare, %d@%v in full", name, spec, i, b.ID, b.ArrivalMS, r.ID, r.ArrivalMS)
				}
				if b.Sample != (exitsim.Sample{}) {
					t.Fatalf("%s %q: request %d carries sample %+v on the bare pass", name, spec, i, b.Sample)
				}
				if r.Sample != (exitsim.Sample{}) {
					sampled++
				}
			}
			if sampled != n {
				t.Fatalf("%s %q: %d of %d full-pass requests carry a sample", name, spec, sampled, n)
			}
		}
	}
	reqs := []Request{{ID: 0, ArrivalMS: 1, Sample: exitsim.Sample{Difficulty: 0.5}}}
	if r, _ := FromSlice("manual", exitsim.KindVideo, reqs).WithoutSamples().Iter().Next(); r != (Request{ID: 0, ArrivalMS: 1}) {
		t.Fatalf("bare pass of a slice stream yields %+v", r)
	}
}
