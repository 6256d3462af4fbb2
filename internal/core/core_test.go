package core

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestEndToEndClassification(t *testing.T) {
	res, err := RunScenario(Scenario{Model: "resnet50", Workload: "video-0", N: 5000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apparate.Accuracy < 0.98 {
		t.Fatalf("accuracy %v below constraint margin", res.Apparate.Accuracy)
	}
	if res.P50Win < 20 {
		t.Fatalf("median win %v%% too small for an easy CV workload", res.P50Win)
	}
}

func TestEndToEndGenerative(t *testing.T) {
	g := NewGen(model.T5Large(), exitsim.KindCNNDailyMail, Config{})
	stream := workload.CNNDailyMail(150, 3, 43)
	v := g.ServeVanilla(stream)
	a := g.Serve(stream)
	if a.MeanScore < 0.98 {
		t.Fatalf("sequence score %v below constraint margin", a.MeanScore)
	}
	if a.TPT().Median() >= v.TPT().Median() {
		t.Fatal("no TPT improvement")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.AccuracyConstraint != 0.01 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

// TestRunScenarioMatchesDirectComposition: a default scenario serves
// exactly what composing the runtimes by hand serves — vanilla and an
// Apparate handler calibrated to the stream's kind, with the paper's 2%
// ramp budget and 1% accuracy constraint, on Clockwork at the model's
// default SLO; for a generative workload, NewGen's engine and policy.
// Callers that moved from hand composition to RunScenario keep their
// numbers.
func TestRunScenarioMatchesDirectComposition(t *testing.T) {
	for _, c := range []struct{ model, workload string }{
		{"resnet50", "video-1"},
		{"distilbert-base", "imdb"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			const n, seed = 3000, 5
			res, err := RunScenario(Scenario{Model: c.model, Workload: c.workload, N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			m, err := model.ByName(c.model)
			if err != nil {
				t.Fatal(err)
			}
			qps := 30.0
			if !workload.IsVideo(c.workload) {
				qps = trace.TargetQPS(m)
			}
			stream, err := workload.ByName(c.workload, n, qps, seed)
			if err != nil {
				t.Fatal(err)
			}
			opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
			v := serving.Run(stream.Iter(), &serving.VanillaHandler{Model: m}, opts)
			h := serving.NewApparate(m, exitsim.ProfileFor(m, stream.Kind), 0.02,
				controller.Config{AccConstraint: 0.01})
			a := serving.Run(stream.Iter(), h, opts)
			if got, want := res.Vanilla, classSummary(v); got != want {
				t.Errorf("vanilla: scenario %+v, direct %+v", got, want)
			}
			if got, want := res.Apparate, classSummary(a); got != want {
				t.Errorf("apparate: scenario %+v, direct %+v", got, want)
			}
			if res.TuneRounds != h.Ctl.TuneRounds || res.AdjustRounds != h.Ctl.AdjustRounds ||
				res.ActiveRamps != len(h.Cfg.Active) {
				t.Errorf("adaptation: scenario %d/%d/%d, direct %d/%d/%d",
					res.TuneRounds, res.AdjustRounds, res.ActiveRamps,
					h.Ctl.TuneRounds, h.Ctl.AdjustRounds, len(h.Cfg.Active))
			}
		})
	}
	t.Run("squad", func(t *testing.T) {
		const n, seed = 60, 9
		res, err := RunScenario(Scenario{Model: "t5-large", Workload: "squad", N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		stream := workload.SQuAD(n, 2, seed)
		g := NewGen(model.T5Large(), stream.Kind, Config{})
		if got, want := res.Vanilla, genSummary(g.ServeVanilla(stream)); got != want {
			t.Errorf("vanilla: scenario %+v, direct %+v", got, want)
		}
		if got, want := res.Apparate, genSummary(g.Serve(stream)); got != want {
			t.Errorf("apparate: scenario %+v, direct %+v", got, want)
		}
		if res.TuneRounds != g.Policy.TuneRounds || res.AdjustRounds != g.Policy.MoveRounds {
			t.Errorf("adaptation: scenario %d/%d, direct %d/%d",
				res.TuneRounds, res.AdjustRounds, g.Policy.TuneRounds, g.Policy.MoveRounds)
		}
	})
}
