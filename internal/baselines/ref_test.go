package baselines

import (
	"slices"
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// replay, refTuneShared and refTunePerRamp are the static-EE tuners as
// they were before they moved onto controller.Table: every candidate
// recomputes each sample's error score and match from the profile. They
// are the references the table-based tuners must reproduce bit for bit.

func replay(cfg *ramp.Config, samples []exitsim.Sample, thresholds []float64) (accLoss, savingFrac float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	wrong := 0
	saving := 0.0
	allOverhead := cfg.OverheadFrac()
	for _, s := range samples {
		overheadUpTo := 0.0
		for i, r := range cfg.Active {
			overheadUpTo += r.Style.OverheadFrac
			e, match := cfg.Profile.Observe(s, cfg.Profile.At(r.Site.Frac, r.Style.Quality*r.Site.Quality))
			if e < thresholds[i] {
				if !match {
					wrong++
				}
				saving += (1 + allOverhead) - (r.Site.Frac + overheadUpTo)
				break
			}
		}
	}
	n := float64(len(samples))
	return float64(wrong) / n, saving / n
}

func refTuneShared(cfg *ramp.Config, samples []exitsim.Sample, accBudget float64) []float64 {
	best := 0.0
	ts := make([]float64, len(cfg.Active))
	for i := 0; i <= 100; i++ {
		t := float64(i) / 100
		for j := range ts {
			ts[j] = t
		}
		if loss, _ := replay(cfg, samples, ts); loss <= accBudget {
			best = t
		}
	}
	for j := range ts {
		ts[j] = best
	}
	return ts
}

func refTunePerRamp(cfg *ramp.Config, samples []exitsim.Sample, accBudget float64) []float64 {
	n := len(cfg.Active)
	ts := make([]float64, n)
	_, curSav := replay(cfg, samples, ts)
	for {
		bestRamp := -1
		bestSav := curSav
		for i := 0; i < n; i++ {
			if ts[i] >= 1 {
				continue
			}
			ts[i] += 0.02
			loss, sav := replay(cfg, samples, ts)
			ts[i] -= 0.02
			if loss <= accBudget && sav > bestSav {
				bestRamp, bestSav = i, sav
			}
		}
		if bestRamp < 0 {
			return ts
		}
		ts[bestRamp] += 0.02
		curSav = bestSav
	}
}

// TestStaticEEMatchesReference checks all three tuning variants against
// the per-candidate replay on both static-EE families: BranchyNet-style
// ramps on video and DeeBERT-style ramps on a drifting NLP trace.
func TestStaticEEMatchesReference(t *testing.T) {
	bert := model.BERTBase()
	nlp, err := workload.ByName("amazon", 800, 30, 24)
	if err != nil {
		t.Fatal(err)
	}
	rn := model.ResNet50()
	cases := []struct {
		m        *model.Model
		kind     exitsim.Kind
		style    ramp.Style
		overhead float64
		samples  []exitsim.Sample
	}{
		{rn, exitsim.KindVideo, ramp.StyleDefault, 0.22, workload.Video(1, 800, 30, 24).Samples()},
		{bert, exitsim.KindAmazon, ramp.StyleDeeBERTPooler, 0.195, nlp.Samples()},
	}
	const budget = 0.01
	for _, c := range cases {
		p := exitsim.ProfileFor(c.m, c.kind)
		boot := c.samples[:len(c.samples)/4]
		shared := StaticEE(c.m, p, c.style, c.overhead, SharedThreshold, boot, nil, budget)
		per := StaticEE(c.m, p, c.style, c.overhead, PerRamp, boot, nil, budget)
		oracle := StaticEE(c.m, p, c.style, c.overhead, OracleTuned, nil, c.samples, budget)
		for _, v := range []struct {
			name string
			got  []float64
			want []float64
		}{
			{"shared", shared.Cfg.Thresholds(), refTuneShared(shared.Cfg, boot, 3*budget)},
			{"per-ramp", per.Cfg.Thresholds(), refTunePerRamp(per.Cfg, boot, 3*budget)},
			{"oracle", oracle.Cfg.Thresholds(), refTunePerRamp(oracle.Cfg, c.samples, budget)},
		} {
			if !slices.Equal(v.got, v.want) {
				t.Errorf("%s %s: thresholds %v, reference %v", c.m.Name, v.name, v.got, v.want)
			}
		}
	}
}
