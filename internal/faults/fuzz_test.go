package faults

import (
	"math"
	"testing"
)

// FuzzParse checks Parse on arbitrary fault specs: it never panics,
// every spec it accepts holds only finite numbers, and the canonical
// String form parses back to itself. The seeds are the specs the
// package tests use plus non-finite inputs and tied or large crash
// times, whose canonical forms are the easiest to get wrong.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "crash:r1@2000+500", "crash:r0@0+100;crash:r1@2000+500", "mtbf:8000/1000",
		"mtbf:r2@8000/1000", "delaydist=lognormal:5,1", "delaydist=const:2",
		"delaydist=uniform:1,5", "delaydist=exp:3", "loss=0.001",
		"crash:r1@2000+500;delaydist=lognormal:5,1;loss=0.001",
		"mtbf:8000/1000;delaydist=exp:2;loss=0.01;timeout=40",
		"loss=0.01;crash:r1@2000+500;crash:r0@100+50;delaydist=exp:2",
		"crash:r1@100+50;mtbf:r3@1000/100", "loss=0.2;timeout=30",
		"crash:1@2000+500", "crash:r1@2000", "crash:r-1@0+10", "crash:r1@-5+10",
		"crash:r1@5+0", "mtbf:8000", "mtbf:0/1000", "delaydist=normal:1,2",
		"delaydist=exp:0", "delaydist=uniform:5,1", "delaydist=lognormal:0,1",
		"loss=1", "loss=-0.1", "loss=x", "timeout=0", "jitter=5",
		"delaydist=const:NaN", "crash:r0@NaN+5", "crash:r0@5+Inf", "mtbf:Inf/5",
		"delaydist=uniform:0,+Inf", "delaydist=lognormal:5,NaN", "loss=NaN", "timeout=Inf",
		"crash:r0@5+1;crash:r0@5+2", "crash:r0@5+2;crash:r0@5+1", "mtbf:3/4;mtbf:1/2",
		"crash:r0@1000000+1", "crash:r0@1e+06+1E+06",
		"crash:r0@1e21+5e-324", "mtbf:1e21/1e-300", "delaydist=uniform:5e-324,1e300;timeout=1e21",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil || s == nil {
			return
		}
		nums := []float64{s.Delay.A, s.Delay.B, s.Loss, s.TimeoutMS}
		for _, c := range s.Crashes {
			nums = append(nums, c.AtMS, c.DownMS)
		}
		for _, c := range s.Churns {
			nums = append(nums, c.UpMS, c.DownMS)
		}
		for _, v := range nums {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted non-finite %g", spec, v)
			}
		}
		canon := s.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
	})
}

// FuzzParseRetry checks ParseRetry the same way: no panic, a finite
// hedge percentile, and a canonical String form that is a fixed point.
func FuzzParseRetry(f *testing.F) {
	for _, spec := range []string{
		"", "3", "attempts=3", "attempts=2/hedge=95", "hedge=99", "hedge=95",
		"attempts=3/hedge=90/hedgemin=64", "attempts=3/hedge=95",
		"attempts=0", "attempts=x", "hedge=0", "hedge=100", "hedgemin=8", "retries=3", "0",
		"hedge=NaN", "hedge=Inf", "attempts=2/hedge=-Inf",
		"hedge=5e-324", "attempts=2/hedge=99.99999999999999",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRetry(spec)
		if err != nil {
			return
		}
		if math.IsNaN(r.HedgeQ) || math.IsInf(r.HedgeQ, 0) {
			t.Fatalf("ParseRetry(%q) accepted non-finite hedge %g", spec, r.HedgeQ)
		}
		canon := r.String()
		again, err := ParseRetry(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
	})
}
