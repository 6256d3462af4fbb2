package ramp

import (
	"testing"
	"testing/quick"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/rng"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	m := model.ResNet50()
	p := exitsim.ProfileFor(m, exitsim.KindVideo)
	return NewConfig(m, p, 0.02)
}

func TestMaxRampsBudget(t *testing.T) {
	c := testConfig(t)
	// 2% budget / 0.4% per default ramp = 5 ramps.
	if got := c.MaxRamps(StyleDefault); got != 5 {
		t.Fatalf("MaxRamps(default) = %d, want 5", got)
	}
	// Costlier styles admit fewer ramps.
	if got := c.MaxRamps(StyleDeeBERTPooler); got >= 5 {
		t.Fatalf("MaxRamps(pooler) = %d, want < 5", got)
	}
}

func TestMaxRampsCappedBySites(t *testing.T) {
	c := testConfig(t)
	c.BudgetFrac = 100
	if got := c.MaxRamps(StyleDefault); got != len(c.Sites) {
		t.Fatalf("MaxRamps = %d, want %d (site count)", got, len(c.Sites))
	}
}

func TestActivateRespectsBudget(t *testing.T) {
	c := testConfig(t)
	n := 0
	for _, s := range c.Sites {
		if err := c.Activate(s, StyleDefault); err != nil {
			break
		}
		n++
	}
	if n != c.MaxRamps(StyleDefault) {
		t.Fatalf("activated %d ramps, budget admits %d", n, c.MaxRamps(StyleDefault))
	}
	if c.OverheadFrac() > c.BudgetFrac+1e-9 {
		t.Fatalf("overhead %v exceeds budget %v", c.OverheadFrac(), c.BudgetFrac)
	}
}

func TestActivateRejectsDuplicate(t *testing.T) {
	c := testConfig(t)
	if err := c.Activate(c.Sites[0], StyleDefault); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(c.Sites[0], StyleDefault); err == nil {
		t.Fatal("Activate accepted a duplicate site")
	}
}

func TestActiveSortedByDepth(t *testing.T) {
	c := testConfig(t)
	// Activate out of order.
	_ = c.Activate(c.Sites[3], StyleDefault)
	_ = c.Activate(c.Sites[0], StyleDefault)
	_ = c.Activate(c.Sites[2], StyleDefault)
	prev := -1.0
	for _, r := range c.Active {
		if r.Site.Frac <= prev {
			t.Fatal("active ramps not depth-ordered")
		}
		prev = r.Site.Frac
	}
}

func TestDeactivate(t *testing.T) {
	c := testConfig(t)
	_ = c.Activate(c.Sites[0], StyleDefault)
	_ = c.Activate(c.Sites[1], StyleDefault)
	c.Deactivate(0)
	if len(c.Active) != 1 || c.Active[0].Site.NodeID != c.Sites[1].NodeID {
		t.Fatal("Deactivate removed the wrong ramp")
	}
}

func TestEvenSpacingProperties(t *testing.T) {
	c := testConfig(t)
	check := func(kRaw uint8) bool {
		k := int(kRaw%20) + 1
		sel := EvenSpacing(c.Sites, k)
		if len(sel) == 0 || len(sel) > k {
			return false
		}
		prev := -1.0
		for _, s := range sel {
			if s.Frac <= prev {
				return false
			}
			prev = s.Frac
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvenSpacingCoversRange(t *testing.T) {
	c := testConfig(t)
	sel := EvenSpacing(c.Sites, 5)
	if len(sel) != 5 {
		t.Fatalf("selected %d sites, want 5", len(sel))
	}
	// First selection in the front third, last in the back third.
	if sel[0].Frac > c.Sites[len(c.Sites)-1].Frac/2 {
		t.Errorf("first ramp too deep: %v", sel[0].Frac)
	}
	if sel[4].Frac < c.Sites[len(c.Sites)-1].Frac/2 {
		t.Errorf("last ramp too shallow: %v", sel[4].Frac)
	}
}

func TestDeployInitialZeroThresholds(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	if len(c.Active) != c.MaxRamps(StyleDefault) {
		t.Fatalf("deployed %d ramps, want %d", len(c.Active), c.MaxRamps(StyleDefault))
	}
	for _, r := range c.Active {
		if r.Threshold != 0 {
			t.Fatal("initial ramp threshold not 0")
		}
	}
}

func TestEvaluateZeroThresholdNeverExits(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		s := exitsim.Sample{Difficulty: r.Float64(), MatchU: r.Float64(), NoiseKey: r.Uint64()}
		out := c.Evaluate(s, 1)
		if out.ExitIndex != -1 {
			t.Fatal("threshold-0 configuration exited")
		}
		if !out.Correct {
			t.Fatal("non-exit marked incorrect")
		}
		want := c.WorstCaseMS(1)
		if out.ServeMS != want {
			t.Fatalf("non-exit latency %v, want worst-case %v", out.ServeMS, want)
		}
	}
}

func TestEvaluateExitsWithHighThreshold(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	for _, r := range c.Active {
		r.Threshold = 0.99
	}
	s := exitsim.Sample{Difficulty: 0.05, MatchU: 0.3, NoiseKey: 7}
	out := c.Evaluate(s, 1)
	if out.ExitIndex != 0 {
		t.Fatalf("easy sample exited at index %d, want 0", out.ExitIndex)
	}
	if out.ServeMS >= c.Model.Latency(1) {
		t.Fatalf("exit latency %v not below full model %v", out.ServeMS, c.Model.Latency(1))
	}
}

func TestEvaluateRecordsAllRamps(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	c.Active[0].Threshold = 0.99 // everything exits at ramp 0
	s := exitsim.Sample{Difficulty: 0.1, MatchU: 0.2, NoiseKey: 3}
	out := c.Evaluate(s, 1)
	if len(out.PerRamp) != len(c.Active) {
		t.Fatalf("recorded %d ramp observations, want %d", len(out.PerRamp), len(c.Active))
	}
	// Observations beyond the exit point must still be populated
	// (inputs run to completion with Apparate).
	for i, ob := range out.PerRamp {
		if ob.Err == 0 && !ob.Match {
			t.Fatalf("ramp %d observation looks unpopulated: %+v", i, ob)
		}
	}
}

// TestEvaluateObservesAtEachRampsSite pins each ramp's stored point to
// its site and style, in the original and in a clone: every
// observation equals Observe at At of the ramp's depth and quality, bit
// for bit, for ramps of mixed styles.
func TestEvaluateObservesAtEachRampsSite(t *testing.T) {
	c := testConfig(t)
	c.BudgetFrac = 0.05
	for i, st := range []Style{StyleDefault, StyleConvAugmented, StyleDefault, StyleTwoFC} {
		if err := c.Activate(c.Sites[(2*i+1)*len(c.Sites)/8], st); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(11)
	for _, cfg := range []*Config{c} {
		for n := 0; n < 500; n++ {
			s := exitsim.Sample{Difficulty: r.Float64() * 1.2, MatchU: r.Float64(), Bias: r.Float64() * 0.05, NoiseKey: r.Uint64()}
			out := cfg.Evaluate(s, 1)
			for i, rp := range cfg.Active {
				var want Observation
				want.Err, want.Match = cfg.Profile.Observe(s, cfg.Profile.At(rp.Site.Frac, rp.Style.Quality*rp.Site.Quality))
				if out.PerRamp[i] != want {
					t.Fatalf("ramp %d: observed %+v, want %+v", i, out.PerRamp[i], want)
				}
			}
		}
	}
}

func TestEvaluateErrScoresDecreaseWithDepth(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	// Average over many samples: deeper ramps must report lower error.
	r := rng.New(5)
	sums := make([]float64, len(c.Active))
	const n = 2000
	for i := 0; i < n; i++ {
		s := exitsim.Sample{Difficulty: 0.1 + r.Float64()*0.8, MatchU: r.Float64(), NoiseKey: r.Uint64()}
		out := c.Evaluate(s, 1)
		for j, ob := range out.PerRamp {
			sums[j] += ob.Err
		}
	}
	// Per-site quality jitter (±6%) can locally reorder adjacent ramps,
	// but depth must dominate end to end.
	last := len(sums) - 1
	if sums[last] >= sums[0] {
		t.Fatalf("mean err at deepest ramp (%v) not below shallowest (%v)",
			sums[last]/n, sums[0]/n)
	}
}

func TestEvaluateLatencyMonotoneInExitDepth(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	// Force exit at each ramp in turn by setting only that threshold.
	prev := -1.0
	for i := range c.Active {
		for j := range c.Active {
			c.Active[j].Threshold = 0
		}
		c.Active[i].Threshold = 1.1 // certain exit at ramp i
		s := exitsim.Sample{Difficulty: 0.3, MatchU: 0.5, NoiseKey: 11}
		out := c.Evaluate(s, 1)
		if out.ExitIndex != i {
			t.Fatalf("expected forced exit at %d, got %d", i, out.ExitIndex)
		}
		if out.ServeMS <= prev {
			t.Fatalf("deeper exit %d not slower than previous", i)
		}
		prev = out.ServeMS
	}
}

func TestThresholdsRoundTrip(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	ts := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	c.SetThresholds(ts)
	got := c.Thresholds()
	for i := range ts {
		if got[i] != ts[i] {
			t.Fatalf("threshold %d = %v, want %v", i, got[i], ts[i])
		}
	}
}

func TestSetThresholdsLengthPanics(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	defer func() {
		if recover() == nil {
			t.Fatal("SetThresholds length mismatch did not panic")
		}
	}()
	c.SetThresholds([]float64{0.1})
}

func TestTrainingMinutesReasonable(t *testing.T) {
	m := model.BERTBase()
	// 10% of the 250k Amazon stream, 12 ramps.
	mins := TrainingMinutes(m, 12, 25000, StyleDefault)
	if mins < 0.5 || mins > 30 {
		t.Fatalf("training time %v minutes outside the paper's 'few minutes'", mins)
	}
}

func TestWorstCaseWithinBudget(t *testing.T) {
	c := testConfig(t)
	c.DeployInitial(StyleDefault)
	vanilla := c.Model.Latency(8)
	worst := c.WorstCaseMS(8)
	if worst > vanilla*(1+c.BudgetFrac)+1e-9 {
		t.Fatalf("worst case %v exceeds vanilla+budget %v", worst, vanilla*(1+c.BudgetFrac))
	}
}

// TestEvaluateZeroAlloc pins Evaluate's hot path with the default
// rule: every call writes its observations into the configuration's one
// buffer, so serving an input allocates nothing.
func TestEvaluateZeroAlloc(t *testing.T) {
	m := model.ResNet50()
	c := NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	c.DeployInitial(StyleDefault)
	c.SetThresholds([]float64{0.05, 0.1, 0.15, 0.2, 0.25})
	r := rng.New(2)
	samples := make([]exitsim.Sample, 64)
	for i := range samples {
		samples[i] = exitsim.Sample{Difficulty: r.Float64() * 1.2, MatchU: r.Float64(), NoiseKey: r.Uint64()}
	}
	i, exits := 0, 0
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Evaluate(samples[i%len(samples)], 1).ExitIndex >= 0 {
			exits++
		}
		i++
	})
	if exits == 0 {
		t.Fatal("no input exited; the pin should cover the exit path too")
	}
	if allocs != 0 {
		t.Fatalf("Evaluate allocates %v per call, want 0", allocs)
	}
}

// BenchmarkEvaluate times one input through resnet50's initial 5-ramp
// deployment, thresholds set so some inputs exit.
func BenchmarkEvaluate(b *testing.B) {
	m := model.ResNet50()
	c := NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	c.DeployInitial(StyleDefault)
	c.SetThresholds([]float64{0.05, 0.1, 0.15, 0.2, 0.25})
	r := rng.New(1)
	samples := make([]exitsim.Sample, 1024)
	for i := range samples {
		samples[i] = exitsim.Sample{Difficulty: r.Float64() * 1.2, MatchU: r.Float64(), NoiseKey: r.Uint64()}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Evaluate(samples[i%len(samples)], 1)
	}
}
