package controller

import (
	"testing"

	"repro/internal/ramp"
)

// Bursty-window coverage for the tuning loop: schedule-driven load means
// the controller can be asked to tune on degenerate windows — empty
// right after a (re)start, a single record after an idle stretch, or a
// window of alternating SLO misses — and must stay well-defined in all
// of them. The steady-state paths are covered in controller_test.go.

func thresholdsInRange(t *testing.T, cfg *ramp.Config) {
	t.Helper()
	for i, r := range cfg.Active {
		if r.Threshold < 0 || r.Threshold > 1 {
			t.Fatalf("ramp %d threshold %v outside [0, 1]", i, r.Threshold)
		}
	}
}

func TestTuneThresholdsEmptyWindow(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	ctl.TuneThresholds() // no observations at all
	if ctl.TuneRounds != 0 {
		t.Fatalf("empty window counted %d tuning rounds, want 0", ctl.TuneRounds)
	}
	thresholdsInRange(t, cfg)
}

func TestTuneThresholdsSingleRecordWindow(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	observeAll(ctl, cfg, videoSamples(1))
	// One record: the train/validate split degenerates (train empty), so
	// tuning must fall back to searching the whole window.
	ctl.TuneThresholds()
	if ctl.TuneRounds != 1 {
		t.Fatalf("single-record window counted %d tuning rounds, want 1", ctl.TuneRounds)
	}
	thresholdsInRange(t, cfg)
}

func TestTuneThresholdsNoActiveRamps(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{})
	observeAll(ctl, cfg, videoSamples(64)) // all correct: no round fires
	for len(cfg.Active) > 0 {
		cfg.Deactivate(0)
	}
	ctl.TuneThresholds() // nothing to tune; must not panic or count
	if ctl.TuneRounds != 0 {
		t.Fatalf("rampless tuning counted %d rounds, want 0", ctl.TuneRounds)
	}
}

func TestObserveAlternatingMissesTriggersTuning(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{AccWindow: 16, AccConstraint: 0.01})
	// Alternate correct/incorrect outcomes: windowed accuracy ~0.5 is a
	// hard violation of the 1% constraint, so tuning must fire as soon
	// as the window fills, and the accuracy window must be judged on
	// fresh outcomes afterwards (Reset).
	samples := videoSamples(64)
	fired := 0
	for i, s := range samples {
		out := cfg.Evaluate(s, 1)
		out.Correct = i%2 == 0
		if ctl.Observe(out) {
			fired++
			if ctl.acc.Full() {
				t.Fatal("accuracy window not reset after a tuning round")
			}
		}
	}
	if fired == 0 || ctl.TuneRounds == 0 {
		t.Fatalf("alternating misses fired %d changes, %d tuning rounds; want both > 0", fired, ctl.TuneRounds)
	}
	thresholdsInRange(t, cfg)
}

func TestObserveAllCorrectNeverTunesOnAccuracy(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{AccWindow: 16, AccConstraint: 0.01, AdjustEvery: 1 << 30})
	for _, s := range videoSamples(128) {
		out := cfg.Evaluate(s, 1)
		out.Correct = true
		ctl.Observe(out)
	}
	if ctl.TuneRounds != 0 {
		t.Fatalf("all-correct stream triggered %d accuracy tuning rounds", ctl.TuneRounds)
	}
}

func TestTuneBudgetHeadroom(t *testing.T) {
	ctl := New(newCfg(), Config{AccConstraint: 0.02})
	if got, want := ctl.tuneBudget(), 0.6*0.02; got != want {
		t.Fatalf("tuneBudget() = %v, want %v (60%% of the constraint)", got, want)
	}
	// The headroom must keep the search target strictly inside the user
	// constraint, or validation could admit boundary configurations.
	if ctl.tuneBudget() >= ctl.Opts.AccConstraint {
		t.Fatal("tuning budget not strictly below the user constraint")
	}
}
