package experiments

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
)

func init() {
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
}

// fig8 reproduces Figure 8: many lightweight ramps beat fewer, more
// expensive ramps under the same budget. Each style's budget-maximal
// evenly spaced deployment is tuned with the greedy search on the full
// stream (thresholds "optimally selected" as in §2.2), then the mean
// serving latency is compared.
func fig8() []Table {
	t := Table{
		ID:     "fig8",
		Title:  "More lightweight ramps boost EE savings (equal budget)",
		Header: []string{"domain", "style", "ramps", "median_serve_ms"},
	}
	cases := []struct {
		domain string
		m      *model.Model
		kind   exitsim.Kind
		styles []ramp.Style
	}{
		{"cv", model.ResNet50(), exitsim.KindVideo,
			[]ramp.Style{ramp.StyleDefault, ramp.StyleConvAugmented}},
		{"nlp", model.BERTBase(), exitsim.KindAmazon,
			[]ramp.Style{ramp.StyleDefault, ramp.StyleTwoFC, ramp.StyleDeeBERTPooler}},
	}
	for _, c := range cases {
		var stream = func() []exitsim.Sample {
			if c.domain == "cv" {
				return cvStream(0, 8).SamplePrefix(6000)
			}
			return nlpStream("amazon", c.m, 8).SamplePrefix(6000)
		}()
		prof := exitsim.ProfileFor(c.m, c.kind)
		for _, style := range c.styles {
			cfg := ramp.NewConfig(c.m, prof, 0.02)
			cfg.DeployInitial(style)
			res := controller.GreedySearch(controller.NewTable(cfg, stream), 0.01, 0.1, 0.01)
			cfg.SetThresholds(res.Thresholds)
			med := medianServeMS(cfg, stream)
			t.Rows = append(t.Rows, []string{
				c.domain, style.Name, fmt.Sprint(len(cfg.Active)), f2(med),
			})
		}
	}
	return []Table{t}
}

func medianServeMS(cfg *ramp.Config, samples []exitsim.Sample) float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = cfg.Evaluate(s, 1).ServeMS
	}
	// Median via sort-free selection is overkill; reuse metrics.
	d := distFrom(lat)
	return d.Median()
}

// fig9 reproduces Figure 9: the 2-ramp threshold landscape with the
// accuracy boundary, and the hill-climbing path that reaches it.
func fig9() []Table {
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	cfg := ramp.NewConfig(m, prof, 0.02)
	_ = cfg.Activate(cfg.Sites[2], ramp.StyleDefault)
	_ = cfg.Activate(cfg.Sites[8], ramp.StyleDefault)
	samples := cvStream(0, 9).SamplePrefix(2000)
	tab := controller.NewTable(cfg, samples)

	grid := Table{
		ID:     "fig9",
		Title:  "2-ramp threshold landscape (latency win %, '-' = >1% accuracy loss)",
		Header: []string{"t_ramp1\\t_ramp2", "0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
	}
	levels := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	for _, t1 := range levels {
		row := []string{f1(t1)}
		for _, t2 := range levels {
			ev := controller.EvalThresholds(tab, []float64{t1, t2})
			if ev.AccLoss > 0.01 {
				row = append(row, "-")
			} else {
				row = append(row, pct(ev.SavingFrac*100))
			}
		}
		grid.Rows = append(grid.Rows, row)
	}

	path := Table{
		ID:     "fig9",
		Title:  "Hill-climbing result on the same window",
		Header: []string{"t_ramp1", "t_ramp2", "latency_win", "acc_loss", "evals"},
	}
	res := controller.GreedySearch(tab, 0.01, 0.1, 0.01)
	path.Rows = append(path.Rows, []string{
		f2(res.Thresholds[0]), f2(res.Thresholds[1]),
		pct(res.SavingFrac * 100), pct(res.AccLoss * 100), fmt.Sprint(res.Evals),
	})
	return []Table{grid, path}
}

// fig10 reproduces Figure 10: greedy threshold tuning runs orders of
// magnitude faster than grid search while staying within a few percent
// of its latency savings, for 2-4 active ramps.
func fig10() []Table {
	t := Table{
		ID:     "fig10",
		Title:  "Greedy vs grid threshold search: runtime and optimality",
		Header: []string{"ramps", "greedy_ms", "grid_ms", "speedup", "saving_gap"},
	}
	m := model.ResNet50()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	samples := cvStream(0, 10).SamplePrefix(512)
	for _, n := range []int{2, 3, 4} {
		cfg := ramp.NewConfig(m, prof, 0.05)
		for i := 0; i < n; i++ {
			idx := (2*i + 1) * len(cfg.Sites) / (2 * n)
			_ = cfg.Activate(cfg.Sites[idx], ramp.StyleDefault)
		}
		tab := controller.NewTable(cfg, samples[:128])

		var greedy, grid controller.TuneResult
		greedyMS := msPerCall(func() { greedy = controller.GreedySearch(tab, 0.01, 0.1, 0.01) })
		gridMS := msPerCall(func() { grid = controller.GridSearch(tab, 0.01, 0.1) })

		gap := 0.0
		if grid.SavingFrac > 0 {
			gap = (grid.SavingFrac - greedy.SavingFrac) / grid.SavingFrac * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), f3(greedyMS), f2(gridMS),
			fmt.Sprintf("%.0fx", gridMS/greedyMS), pct(gap),
		})
	}
	return []Table{t}
}

// msPerCall returns f's mean wall time in milliseconds, calling it until
// the calls span at least a millisecond: a search far shorter than the
// timer's tick still reads as a time, never as zero.
func msPerCall(f func()) float64 {
	start := time.Now()
	for calls := 1; ; calls++ {
		f()
		if el := time.Since(start); el >= time.Millisecond {
			return float64(el.Nanoseconds()) / float64(calls) / 1e6
		}
	}
}
