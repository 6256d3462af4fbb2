package serving

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkRun times whole single-replica runs — resnet18 on video-0,
// 8,000 frames at 30 fps on Clockwork — through Run, the cluster runtime
// at width one, and through refRun, the time-stepped loop Run replaced,
// for vanilla and Apparate handlers. It reports ns per simulated
// request; the gap between the two runtimes is the event engine's cost
// at width one. Building each run's handler is timed too.
func BenchmarkRun(b *testing.B) {
	m := model.ResNet18()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	s := workload.Video(0, 8000, 30, 1)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}
	handlers := []struct {
		name string
		mk   func() Handler
	}{
		{"vanilla", func() Handler { return &VanillaHandler{Model: m} }},
		{"apparate", func() Handler { return NewApparate(m, prof, 0.02, controller.Config{}) }},
	}
	runtimes := []struct {
		name string
		run  func(*workload.Iter, Handler, Options) *Stats
	}{{"ref", refRun}, {"run", Run}}
	for _, hc := range handlers {
		for _, rt := range runtimes {
			b.Run(hc.name+"/"+rt.name, func(b *testing.B) {
				b.ReportAllocs()
				reqs := 0
				for b.Loop() {
					reqs += rt.run(s.Iter(), hc.mk(), opts).Total
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/request")
			})
		}
	}
}
