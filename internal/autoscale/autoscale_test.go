package autoscale

import (
	"testing"
)

func mustParse(t *testing.T, spec string) Config {
	t.Helper()
	c, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return c
}

func TestParseSpecs(t *testing.T) {
	c := mustParse(t, "1..4")
	if c.Min != 1 || c.Max != 4 {
		t.Fatalf("1..4 parsed to min=%d max=%d", c.Min, c.Max)
	}
	c = mustParse(t, "2..8/window=2000/cool=7000/up=0.9/down=0.3")
	if c.Min != 2 || c.Max != 8 || c.WindowMS != 2000 || c.CooldownMS != 7000 ||
		c.UpLatFrac != 0.9 || c.DownUtil != 0.3 {
		t.Fatalf("override spec parsed to %+v", c)
	}
	for _, bad := range []string{
		"4", "4..1", "0..4", "1..4/window", "1..4/warp=2", "a..b",
		"1..4/up=0.5/downlat=0.6", // down >= up latency fraction
		"1..4/down=1.5",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
	if c, err := Parse(""); err != nil || c != (Config{}) {
		t.Fatalf("empty spec: got (%+v, %v)", c, err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, spec := range []string{"1..4", "2..8/window=2000", "1..3/up=0.9/down=0.3"} {
		c := mustParse(t, spec)
		c2 := mustParse(t, c.String())
		if c != c2 {
			t.Fatalf("%q: round trip %q changed config: %+v vs %+v", spec, c.String(), c, c2)
		}
	}
}

// scalerCfg is a convenient test configuration: 1..4 replicas, 100 ms
// SLO, 1 s windows, 1 s cooldown so consecutive windows can act.
func scalerCfg() Config {
	return Config{Min: 1, Max: 4, SLOms: 100, WindowMS: 1000, CooldownMS: 1000}
}

func TestScalerScalesUpOnLatency(t *testing.T) {
	s := New(scalerCfg())
	hot := Signal{Requests: 50, P99LatMS: 250, Utilization: 1.2}
	ups := 0
	for i := 1; i <= 5; i++ {
		n, changed := s.Observe(float64(i)*1000, hot)
		want := 1 + i
		if want > 4 {
			want = 4
		}
		if n != want {
			t.Fatalf("window %d: replicas %d, want %d", i, n, want)
		}
		if changed {
			ups++
		}
	}
	if ups != 3 {
		t.Fatalf("%d scale-ups, want 3 (capped at max)", ups)
	}
}

func TestScalerScalesUpOnBacklog(t *testing.T) {
	s := New(scalerCfg())
	// Latency under the line but a deep queue: backlog wins.
	n, changed := s.Observe(1000, Signal{Requests: 50, P99LatMS: 60, PeakBacklogMS: 500, Utilization: 0.9})
	if !changed || n != 2 {
		t.Fatalf("backlog signal: replicas %d changed=%v, want 2 true", n, changed)
	}
}

func TestScalerScalesDownWhenIdle(t *testing.T) {
	s := New(scalerCfg())
	hot := Signal{Requests: 50, P99LatMS: 250, Utilization: 1.2}
	s.Observe(1000, hot)
	s.Observe(2000, hot) // at 3 replicas
	cold := Signal{Requests: 20, P99LatMS: 40, Utilization: 0.1}
	downs := 0
	n, changed := s.Observe(3000, cold)
	if n != 2 || !changed {
		t.Fatalf("cold window: replicas %d changed=%v, want 2 true", n, changed)
	}
	downs++
	// A zero-request window also scales down.
	n, changed = s.Observe(4000, Signal{})
	if n != 1 || !changed {
		t.Fatalf("idle window: replicas %d changed=%v, want 1 true", n, changed)
	}
	downs++
	// Never below min.
	if n, changed = s.Observe(5000, Signal{}); n != 1 {
		t.Fatalf("below-min scale-down: replicas %d, want 1", n)
	}
	if changed {
		downs++
	}
	if downs != 2 {
		t.Fatalf("%d scale-downs, want 2", downs)
	}
}

func TestScalerCooldown(t *testing.T) {
	cfg := scalerCfg()
	cfg.CooldownMS = 5000
	s := New(cfg)
	hot := Signal{Requests: 50, P99LatMS: 250, Utilization: 1.2}
	if n, _ := s.Observe(1000, hot); n != 2 {
		t.Fatalf("first action blocked: %d", n)
	}
	for _, now := range []float64{2000, 3000, 4000, 5000} {
		if n, changed := s.Observe(now, hot); changed || n != 2 {
			t.Fatalf("cooldown violated at t=%v: replicas %d", now, n)
		}
	}
	if n, changed := s.Observe(6000, hot); !changed || n != 3 {
		t.Fatalf("post-cooldown action missing: replicas %d changed=%v", n, changed)
	}
}

func TestScalerHysteresis(t *testing.T) {
	// A borderline window — neither hot nor cold — must not flap.
	s := New(scalerCfg())
	mid := Signal{Requests: 50, P99LatMS: 80, Utilization: 0.6}
	for i := 1; i <= 10; i++ {
		if _, changed := s.Observe(float64(i)*1000, mid); changed {
			t.Fatalf("borderline window %d triggered a scaling action", i)
		}
	}
}

func TestPlanCounts(t *testing.T) {
	p := &Plan{Start: 1, Steps: []Step{
		{AtMS: 1000, Replicas: 2},
		{AtMS: 2000, Replicas: 3},
		{AtMS: 5000, Replicas: 2},
		{AtMS: 9000, Replicas: 1},
	}}
	if p.Peak() != 3 || p.Ups() != 2 || p.Downs() != 2 {
		t.Fatalf("peak/ups/downs = %d/%d/%d, want 3/2/2", p.Peak(), p.Ups(), p.Downs())
	}
}

// TestScalerOnDecision: Observe reports each committed action, and
// only those, with the replica count after it.
func TestScalerOnDecision(t *testing.T) {
	s := New(scalerCfg())
	type dec struct {
		at       float64
		from, to int
	}
	var decs []dec
	observe := func(atMS float64, sig Signal) {
		from := s.Replicas()
		if to, changed := s.Observe(atMS, sig); changed {
			decs = append(decs, dec{atMS, from, to})
		} else if to != from {
			t.Fatalf("Observe at %v moved %d -> %d without reporting a change", atMS, from, to)
		}
	}
	hot := Signal{Requests: 50, P99LatMS: 250, Utilization: 1.2}
	observe(1000, hot)      // 1 -> 2
	observe(2000, hot)      // 2 -> 3
	observe(2500, hot)      // cooldown: no decision
	observe(3000, Signal{}) // idle: 3 -> 2
	want := []dec{{1000, 1, 2}, {2000, 2, 3}, {3000, 3, 2}}
	if len(decs) != len(want) {
		t.Fatalf("Observe reported %d decisions, want %d: %v", len(decs), len(want), decs)
	}
	for i, w := range want {
		if decs[i] != w {
			t.Fatalf("decision %d = %v, want %v", i, decs[i], w)
		}
	}
}
