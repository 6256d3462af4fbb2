package controller

import (
	"testing"
	"testing/quick"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/rng"
	"repro/internal/workload"
)

// newCfg builds a deployed ResNet50/video configuration.
func newCfg() *ramp.Config {
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	cfg.DeployInitial(ramp.StyleDefault)
	return cfg
}

// observeAll serves each sample through cfg and records it in ctl.
func observeAll(ctl *Controller, cfg *ramp.Config, samples []exitsim.Sample) {
	for _, s := range samples {
		ctl.Observe(cfg.Evaluate(s, 1))
	}
}

func videoSamples(n int) []exitsim.Sample {
	return workload.Video(0, n, 30, 42).Samples()
}

func TestEvalZeroThresholdsNeutral(t *testing.T) {
	cfg := newCfg()
	tab := NewTable(cfg, videoSamples(200))
	res := EvalThresholds(tab, make([]float64, len(cfg.Active)))
	if res.AccLoss != 0 || res.SavingFrac != 0 {
		t.Fatalf("zero thresholds gave loss=%v saving=%v", res.AccLoss, res.SavingFrac)
	}
	for _, c := range res.ExitCount {
		if c != 0 {
			t.Fatal("zero thresholds produced exits")
		}
	}
}

func TestEvalMonotoneInThresholds(t *testing.T) {
	// The fundamental EE property (§3.2): raising any single threshold
	// never decreases latency savings and never decreases accuracy loss.
	cfg := newCfg()
	tab := NewTable(cfg, videoSamples(300))
	n := len(cfg.Active)
	check := func(seed uint64) bool {
		r := rng.New(seed)
		base := make([]float64, n)
		for i := range base {
			base[i] = r.Float64() * 0.5
		}
		b := EvalThresholds(tab, base)
		i := r.Intn(n)
		raised := make([]float64, n)
		copy(raised, base)
		raised[i] += r.Float64() * (1 - raised[i])
		a := EvalThresholds(tab, raised)
		return a.SavingFrac >= b.SavingFrac-1e-12 && a.AccLoss >= b.AccLoss-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalEarliestRampWins(t *testing.T) {
	cfg := newCfg()
	tab := NewTable(cfg, videoSamples(100))
	// With every threshold maxed, all exits should land on ramp 0 unless
	// its error score was >= 1 (impossible since scores are clamped < 1
	// only when threshold is 1.0 exclusive); allow ramp 0 or none.
	ts := make([]float64, len(cfg.Active))
	for i := range ts {
		ts[i] = 1.0
	}
	res := EvalThresholds(tab, ts)
	for i := 1; i < len(res.ExitCount); i++ {
		if res.ExitCount[i] > res.ExitCount[0] {
			t.Fatalf("deeper ramp %d captured more exits (%d) than ramp 0 (%d) at max thresholds",
				i, res.ExitCount[i], res.ExitCount[0])
		}
	}
}

func TestEvalMissingObservationsNoExit(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{AdjustEvery: 1 << 30})
	// Record the window without ramp 0, then reactivate it: no record
	// has an observation there, so none can exit there.
	site0 := cfg.Active[0].Site
	cfg.Deactivate(0)
	observeAll(ctl, cfg, videoSamples(50))
	if err := cfg.Activate(site0, ramp.StyleDefault); err != nil {
		t.Fatal(err)
	}
	tab := ctl.windowTable()
	ts := make([]float64, len(cfg.Active))
	ts[0] = 1.0
	res := EvalThresholds(tab, ts)
	if res.ExitCount[0] != 0 {
		t.Fatal("exits attributed to a ramp with no observations")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	cfg := newCfg()
	tab := NewTable(cfg, videoSamples(256))
	for _, budget := range []float64{0.01, 0.02, 0.05} {
		res := GreedySearch(tab, budget, 0.1, 0.01)
		if res.AccLoss > budget {
			t.Fatalf("greedy violated budget %v: loss %v", budget, res.AccLoss)
		}
	}
}

func TestGreedyFindsSavings(t *testing.T) {
	cfg := newCfg()
	tab := NewTable(cfg, videoSamples(256))
	res := GreedySearch(tab, 0.01, 0.1, 0.01)
	if res.SavingFrac <= 0 {
		t.Fatal("greedy found no savings on an easy video workload")
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	// Figure 10b: greedy is within a few percent of grid search. Use two
	// ramps to keep the grid cheap.
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	sites := cfg.Sites
	_ = cfg.Activate(sites[2], ramp.StyleDefault)
	_ = cfg.Activate(sites[8], ramp.StyleDefault)
	tab := NewTable(cfg, videoSamples(256))

	grid := GridSearch(tab, 0.01, 0.05)
	greedy := GreedySearch(tab, 0.01, 0.1, 0.01)
	if grid.SavingFrac <= 0 {
		t.Fatal("grid found no savings; test setup broken")
	}
	gap := (grid.SavingFrac - greedy.SavingFrac) / grid.SavingFrac
	if gap > 0.10 {
		t.Fatalf("greedy optimality gap %.1f%% > 10%%", gap*100)
	}
	if greedy.Evals >= grid.Evals {
		t.Fatalf("greedy used %d evals, grid %d — no speedup", greedy.Evals, grid.Evals)
	}
}

func TestGreedyFarFewerEvalsThanGrid(t *testing.T) {
	// Figure 10a: orders of magnitude fewer evaluations at 3–4 ramps.
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	for _, i := range []int{1, 5, 9, 13} {
		_ = cfg.Activate(cfg.Sites[i], ramp.StyleDefault)
	}
	tab := NewTable(cfg, videoSamples(128))
	greedy := GreedySearch(tab, 0.01, 0.1, 0.01)
	// Grid with step 0.1 over 4 ramps = 11^4 = 14641 evals.
	if greedy.Evals > 1464 {
		t.Fatalf("greedy used %d evals, want <= 10%% of grid's 14641", greedy.Evals)
	}
}

func TestGridRespectsBudget(t *testing.T) {
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	_ = cfg.Activate(cfg.Sites[3], ramp.StyleDefault)
	_ = cfg.Activate(cfg.Sites[9], ramp.StyleDefault)
	tab := NewTable(cfg, videoSamples(128))
	res := GridSearch(tab, 0.01, 0.1)
	if res.AccLoss > 0.01 {
		t.Fatalf("grid violated budget: %v", res.AccLoss)
	}
}

func TestControllerBootstrapsExits(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	stream := workload.Video(0, 600, 30, 7)
	exits := 0
	for _, req := range stream.Materialize() {
		out := cfg.Evaluate(req.Sample, 1)
		if out.ExitIndex >= 0 {
			exits++
		}
		ctl.Observe(out)
	}
	if exits == 0 {
		t.Fatal("controller never bootstrapped exiting from zero thresholds")
	}
}

func TestControllerMaintainsAccuracy(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{AccConstraint: 0.01})
	stream := workload.Video(1, 8000, 30, 11) // night video with regime shifts
	correct, total := 0, 0
	warmup := 1000
	for i, req := range stream.Materialize() {
		out := cfg.Evaluate(req.Sample, 1)
		ctl.Observe(out)
		if i >= warmup {
			total++
			if out.Correct {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	// The paper's bound is per-window with continual adaptation; allow a
	// small margin over the long-run average.
	// The constraint applies to tuning windows; the long-run average
	// includes the detection transients of each regime shift.
	if acc < 0.975 {
		t.Fatalf("long-run accuracy %.4f below constraint margin", acc)
	}
	if ctl.TuneRounds == 0 {
		t.Fatal("controller never tuned thresholds")
	}
}

func TestControllerAdjustsRamps(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	stream := workload.Video(0, 3000, 30, 13)
	for _, req := range stream.Materialize() {
		ctl.Observe(cfg.Evaluate(req.Sample, 1))
	}
	if ctl.AdjustRounds == 0 {
		t.Fatal("controller never ran ramp adjustment")
	}
	if cfg.OverheadFrac() > cfg.BudgetFrac+1e-9 {
		t.Fatalf("adjustment exceeded ramp budget: %v > %v", cfg.OverheadFrac(), cfg.BudgetFrac)
	}
}

func TestAblationTunesWithoutAdjusting(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{DisableRampAdjust: true})
	before := make([]int, 0, len(cfg.Active))
	for _, r := range cfg.Active {
		before = append(before, r.Site.NodeID)
	}
	stream := workload.Video(0, 2000, 30, 17)
	exits := 0
	for _, req := range stream.Materialize() {
		out := cfg.Evaluate(req.Sample, 1)
		if out.ExitIndex >= 0 {
			exits++
		}
		ctl.Observe(out)
	}
	if ctl.AdjustRounds != 0 {
		t.Fatal("ablation ran ramp adjustment")
	}
	if exits == 0 {
		t.Fatal("ablation produced no exits (tuning broken)")
	}
	// The ramp set must be untouched.
	if len(cfg.Active) != len(before) {
		t.Fatal("ablation changed the ramp set size")
	}
	for i, r := range cfg.Active {
		if r.Site.NodeID != before[i] {
			t.Fatal("ablation moved a ramp")
		}
	}
}

func TestUtilitiesNegativeWithoutExits(t *testing.T) {
	cfg := newCfg() // thresholds all zero: no exits
	ctl := New(cfg, Config{})
	utils := ctl.utilities(NewTable(cfg, videoSamples(128)))
	for i, u := range utils {
		if u.Net() >= 0 {
			t.Fatalf("ramp %d utility %v not negative with zero exits", i, u.Net())
		}
		if u.Exits != 0 || u.Savings != 0 {
			t.Fatalf("ramp %d has phantom exits: %+v", i, u)
		}
	}
}

func TestUtilitiesCountExits(t *testing.T) {
	cfg := newCfg()
	cfg.Active[0].Threshold = 0.9 // aggressive first ramp
	ctl := New(cfg, Config{})
	utils := ctl.utilities(NewTable(cfg, videoSamples(128)))
	if utils[0].Exits == 0 {
		t.Fatal("aggressive ramp recorded no exits")
	}
	if utils[0].Savings <= 0 {
		t.Fatal("exiting ramp has no savings")
	}
	// Inputs exiting at ramp 0 must not be charged overhead at ramp 1.
	maxOverhead := float64(128-utils[0].Exits) * cfg.Model.Latency(1) * cfg.Active[1].Style.OverheadFrac
	if utils[1].Overhead > maxOverhead+1e-9 {
		t.Fatalf("downstream ramp overcharged: %v > %v", utils[1].Overhead, maxOverhead)
	}
}

func TestStormPreservesRampPositions(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	before := len(cfg.Active)
	// A stream of impossible inputs is a "total storm": no ramp exits
	// anything, thresholds stay at zero, and the controller must NOT
	// destroy ramp positions (they cost nothing in accuracy and are
	// needed the moment the regime passes).
	r := rng.New(3)
	for i := 0; i < 1024; i++ {
		s := exitsim.Sample{Difficulty: 5, MatchU: 0.999, NoiseKey: r.Uint64()}
		ctl.Observe(cfg.Evaluate(s, 1))
	}
	if len(cfg.Active) != before {
		t.Fatalf("storm changed the ramp set: %d -> %d", before, len(cfg.Active))
	}
}

func TestAdjustCullsRelativeLosers(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	// An easy stream exits almost everything at the first ramp; deep
	// ramps idle, show persistent negative utility, and should be
	// culled (down to the 2-ramp floor) with the budget reusable.
	stream := workload.Video(0, 6000, 30, 33)
	for _, req := range stream.Materialize() {
		ctl.Observe(cfg.Evaluate(req.Sample, 1))
	}
	if len(cfg.Active) < 2 {
		t.Fatalf("culling went below the 2-ramp floor: %d", len(cfg.Active))
	}
	if ctl.AdjustRounds == 0 {
		t.Fatal("no adjustment rounds ran")
	}
}

func TestSiteBefore(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	// Site before the deepest active ramp must be shallower and inactive.
	deepest := cfg.Active[len(cfg.Active)-1]
	site, ok := ctl.siteBefore(deepest.Site)
	if !ok {
		t.Fatal("no site before the deepest ramp")
	}
	if site.Frac >= deepest.Site.Frac {
		t.Fatal("siteBefore returned a deeper site")
	}
	for _, r := range cfg.Active {
		if r.Site.NodeID == site.NodeID {
			t.Fatal("siteBefore returned an active site")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.AccConstraint != 0.01 || c.AccWindow != 16 || c.RecordWindow != 512 ||
		c.AdjustEvery != 128 || c.MinStep != 0.01 || c.InitStep != 0.1 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}
