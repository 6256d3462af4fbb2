package controller_test

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/workload"
)

// trainTable is the table a default controller's tuning round searches:
// resnet50's initial 5-ramp deployment over the 60% training split of a
// full 512-input window (307 rows) of video-1.
func trainTable() controller.Table {
	m := model.ResNet50()
	cfg := ramp.NewConfig(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02)
	cfg.DeployInitial(ramp.StyleDefault)
	return controller.NewTable(cfg, workload.Video(1, 512*3/5, 30, 3).Samples())
}

func BenchmarkEvalThresholds(b *testing.B) {
	tab := trainTable()
	ts := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ReportAllocs()
	for b.Loop() {
		controller.EvalThresholds(tab, ts)
	}
}

func BenchmarkGreedySearch(b *testing.B) {
	tab := trainTable()
	b.ReportAllocs()
	for b.Loop() {
		controller.GreedySearch(tab, 0.006, 0.1, 0.01)
	}
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
