package faults

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"crash:r1@2000+500",
		"crash:r0@0+100;crash:r1@2000+500",
		"mtbf:8000/1000",
		"mtbf:r2@8000/1000",
		"delaydist=lognormal:5,1",
		"delaydist=const:2",
		"delaydist=uniform:1,5",
		"delaydist=exp:3",
		"loss=0.001",
		"crash:r1@2000+500;delaydist=lognormal:5,1;loss=0.001",
		"mtbf:8000/1000;delaydist=exp:2;loss=0.01;timeout=40",
		// Times of 10^6 ms and up render with an exponent sign that
		// must not be mistaken for the AT+DOWN separator.
		"crash:r0@1e+06+1",
		"crash:r0@1.5e+06+2e+06",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Fatalf("Parse(%q).String() = %q", spec, got)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.String(), err)
		}
		if again.String() != s.String() {
			t.Fatalf("round trip unstable: %q -> %q", s.String(), again.String())
		}
	}
}

// TestCanonicalOrdering pins that clause order does not matter: the
// same fault model always renders to the same canonical string, which
// is what keeps scenario identities (and derived seeds) stable.
func TestCanonicalOrdering(t *testing.T) {
	a, err := Parse("loss=0.01;crash:r1@2000+500;crash:r0@100+50;delaydist=exp:2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("crash:r0@100+50;delaydist=exp:2;crash:r1@2000+500;loss=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("clause order changed canonical form: %q vs %q", a.String(), b.String())
	}
	// Clauses that tie on replica and time order by their other fields.
	c, err := Parse("crash:r0@5+2;crash:r0@5+1;mtbf:3/4;mtbf:1/2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse("crash:r0@5+1;crash:r0@5+2;mtbf:1/2;mtbf:3/4")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != d.String() {
		t.Fatalf("clause order changed canonical form of tied clauses: %q vs %q", c.String(), d.String())
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("")
	if err != nil || s != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", s, err)
	}
	if !s.Empty() {
		t.Fatal("nil spec must report Empty")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"crash:1@2000+500",     // missing r prefix
		"crash:r1@2000",        // missing down duration
		"crash:r-1@0+10",       // negative replica
		"crash:r1@-5+10",       // negative time
		"crash:r1@5+0",         // zero downtime
		"mtbf:8000",            // missing MTTR
		"mtbf:0/1000",          // zero MTBF
		"delaydist=normal:1,2", // unknown family
		"delaydist=exp:0",      // non-positive mean
		"delaydist=uniform:5,1",
		"delaydist=lognormal:0,1",
		"loss=1",
		"loss=-0.1",
		"loss=x",
		"timeout=0",
		"jitter=5",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	if _, err := Parse("crash:r1@2000+500"); err != nil {
		t.Fatal(err)
	}
}

func TestMaxReplica(t *testing.T) {
	s, err := Parse("crash:r1@100+50;mtbf:r3@1000/100")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MaxReplica(); got != 3 {
		t.Fatalf("MaxReplica = %d, want 3", got)
	}
	s, err = Parse("mtbf:1000/100;loss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MaxReplica(); got != -1 {
		t.Fatalf("all-replica churn MaxReplica = %d, want -1", got)
	}
}

func TestDelaySampleMoments(t *testing.T) {
	const n = 200000
	cases := []struct {
		spec string
		mean float64
		tol  float64
	}{
		{"const:2", 2, 0.001},
		{"uniform:1,5", 3, 0.05},
		{"exp:3", 3, 0.05},
		// lognormal mean = median * exp(sigma^2/2)
		{"lognormal:5,0.5", 5 * math.Exp(0.125), 0.1},
	}
	for _, c := range cases {
		d, err := ParseDelay(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.Labeled(7, "faults.test")
		sum := 0.0
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if v < 0 {
				t.Fatalf("%s sampled negative delay %g", c.spec, v)
			}
			sum += v
		}
		if got := sum / n; math.Abs(got-c.mean) > c.tol*c.mean+0.001 {
			t.Errorf("%s mean = %g, want ~%g", c.spec, got, c.mean)
		}
	}
}

// TestFreeNetworkDrawsNothing pins the no-perturbation property at the
// distribution level: a Spec without a delay distribution consumes no
// randomness when sampled.
func TestFreeNetworkDrawsNothing(t *testing.T) {
	r := rng.New(3)
	before := *r
	if v := (DelayDist{}).Sample(r); v != 0 {
		t.Fatalf("free network sampled %g, want 0", v)
	}
	if *r != before {
		t.Fatal("free-network Sample advanced the rng")
	}
}

func TestRetryRoundTrip(t *testing.T) {
	specs := []string{
		"attempts=3",
		"attempts=2/hedge=95",
		"hedge=99",
		"attempts=3/hedge=90/hedgemin=64",
	}
	for _, spec := range specs {
		r, err := ParseRetry(spec)
		if err != nil {
			t.Fatalf("ParseRetry(%q): %v", spec, err)
		}
		if got := r.String(); got != spec {
			t.Fatalf("ParseRetry(%q).String() = %q", spec, got)
		}
	}
	// Bare-integer shorthand canonicalizes to attempts=N.
	r, err := ParseRetry("3")
	if err != nil || r.Attempts != 3 || r.String() != "attempts=3" {
		t.Fatalf("ParseRetry(\"3\") = %+v (%v)", r, err)
	}
	// Zero policy.
	z, err := ParseRetry("")
	if err != nil || z.Enabled() || z.String() != "" {
		t.Fatalf("ParseRetry(\"\") = %+v (%v)", z, err)
	}
	// Hedging defaults its sample floor.
	h, err := ParseRetry("hedge=95")
	if err != nil || h.HedgeMin != DefaultHedgeMin {
		t.Fatalf("hedge default floor = %+v (%v)", h, err)
	}
}

func TestRetryErrors(t *testing.T) {
	for _, spec := range []string{
		"attempts=0", "attempts=x", "hedge=0", "hedge=100",
		"hedgemin=8", "retries=3", "0",
	} {
		if _, err := ParseRetry(spec); err == nil {
			t.Errorf("ParseRetry(%q) accepted", spec)
		}
	}
}
