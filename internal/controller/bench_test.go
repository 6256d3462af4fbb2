package controller_test

import (
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/workload"
)

// videoTable is resnet50's initial 5-ramp deployment over the first n
// inputs of video-1.
func videoTable(n int) controller.Table {
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	cfg.DeployInitial(ramp.StyleDefault)
	return controller.NewTable(cfg, workload.Video(1, n, 30, 3).Samples())
}

// searchTables are the tables a default controller's greedy searches
// run on: a tuning round's 60% training split of a full 512-input window
// (307 rows), and the whole window an adjustment round searches.
var searchTables = []struct {
	name string
	rows int
}{{"train-307", 512 * 3 / 5}, {"window-512", 512}}

func BenchmarkEvalThresholds(b *testing.B) {
	tab := videoTable(512 * 3 / 5)
	ts := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ReportAllocs()
	for b.Loop() {
		controller.EvalThresholds(tab, ts)
	}
}

// BenchmarkGreedySearch times whole searches at a default controller's
// budget and reports the cost of one scored candidate.
func BenchmarkGreedySearch(b *testing.B) {
	for _, st := range searchTables {
		b.Run(st.name, func(b *testing.B) {
			tab := videoTable(st.rows)
			evals := 0
			b.ReportAllocs()
			for b.Loop() {
				evals += controller.GreedySearch(tab, 0.006, 0.1, 0.01).Evals
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/candidate")
		})
	}
}

// BenchmarkObserve times the controller's recording path, Observe alone,
// in ns per input, with allocations per pass of inputs. Every outcome is
// correct and the adjustment cadence is out of reach, so no round fires:
//   - steady: a full default window, one window of inputs per pass;
//   - warm-up: a fresh controller's first 375 inputs, one cluster-chaos
//     replica's share of its scenario;
//   - rebuild: a full window whose active set changes every 128 inputs,
//     the adjustment cadence, one ramp leaving and coming back, so that
//     the window table is rewritten into new columns.
func BenchmarkObserve(b *testing.B) {
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	cfg.DeployInitial(ramp.StyleDefault)
	site0 := cfg.Active[0].Site
	samples := workload.Video(1, 512, 30, 3).Samples()
	// outcomes evaluates the samples under cfg's active set, each outcome
	// with its own copy of the observations.
	outcomes := func() []ramp.Outcome {
		outs := make([]ramp.Outcome, len(samples))
		for i, s := range samples {
			out := cfg.Evaluate(s, 1)
			out.PerRamp = slices.Clone(out.PerRamp)
			out.Correct = true
			outs[i] = out
		}
		return outs
	}
	full := outcomes()
	cfg.Deactivate(0)
	short := outcomes()
	if err := cfg.Activate(site0, ramp.StyleDefault); err != nil {
		b.Fatal(err)
	}
	opts := controller.Config{AdjustEvery: 1 << 30}
	// filled returns a controller whose window has been full for a
	// window's worth of inputs, so its storage has stopped growing.
	filled := func() *controller.Controller {
		ctl := controller.New(cfg, opts)
		for range 2 {
			for _, out := range full {
				ctl.Observe(out)
			}
		}
		return ctl
	}
	run := func(b *testing.B, inputs int, pass func()) {
		b.ReportAllocs()
		for b.Loop() {
			pass()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inputs), "ns/input")
	}
	b.Run("steady", func(b *testing.B) {
		ctl := filled()
		run(b, len(full), func() {
			for _, out := range full {
				ctl.Observe(out)
			}
		})
	})
	b.Run("warm-up", func(b *testing.B) {
		run(b, 375, func() {
			ctl := controller.New(cfg, opts)
			for _, out := range full[:375] {
				ctl.Observe(out)
			}
		})
	})
	b.Run("rebuild", func(b *testing.B) {
		ctl := filled()
		run(b, len(full), func() {
			for k := 0; k < len(full); k += 128 {
				outs := full
				if k/128%2 == 0 {
					cfg.Deactivate(0)
					outs = short
				} else if err := cfg.Activate(site0, ramp.StyleDefault); err != nil {
					b.Fatal(err)
				}
				for _, out := range outs[k : k+128] {
					ctl.Observe(out)
				}
			}
		})
	})
}

// benchServe times Handler.Serve per request over 8000 video-1 frames,
// building a fresh handler per pass so Apparate's tuning and adjustment
// rounds fire exactly as they do in a served stream.
func benchServe(b *testing.B, mk func(*model.Model) serving.Handler) {
	samples := workload.Video(1, 8000, 30, 3).Samples()
	b.ReportAllocs()
	for b.Loop() {
		h := mk(model.ResNet50())
		for _, s := range samples {
			h.Serve(s, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/req")
}

func BenchmarkServeApparate(b *testing.B) {
	benchServe(b, func(m *model.Model) serving.Handler {
		return serving.NewApparate(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02, controller.Config{})
	})
}

func BenchmarkServeVanilla(b *testing.B) {
	benchServe(b, func(m *model.Model) serving.Handler { return &serving.VanillaHandler{Model: m} })
}
