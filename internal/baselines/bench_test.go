package baselines

import (
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// BenchmarkStaticEETune times one-time static-EE tuning at the
// benchmark's static-ee scale: BranchyNet-style ramps at every resnet50
// site, oracle-tuned on 3000 video-1 frames.
func BenchmarkStaticEETune(b *testing.B) {
	m := model.ResNet50()
	p := exitsim.ProfileFor(m, exitsim.KindVideo)
	samples := workload.Video(1, 3000, 30, 3).Samples()
	b.ReportAllocs()
	for b.Loop() {
		StaticEE(m, p, ramp.StyleDefault, 0.22, OracleTuned, nil, samples, 0.01)
	}
}
