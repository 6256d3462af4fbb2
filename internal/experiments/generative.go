package experiments

import (
	"repro/internal/exitsim"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("fig18", fig18)
}

// fig18 reproduces Figure 18: generative TPT distributions — T5-large
// against FREE and optimal on CNN/DailyMail and SQuAD, and Llama-2
// 7B/13B against optimal on SQuAD.
func fig18() []Table {
	t5 := Table{
		ID:     "fig18",
		Title:  "T5-large time-per-token (ms): vanilla vs FREE vs Apparate vs optimal",
		Header: []string{"workload", "system", "p25", "p50", "p95", "seq_score"},
	}
	for _, wl := range []string{"cnn-dailymail", "squad"} {
		m := model.T5Large()
		var stream *workload.GenStream
		if wl == "squad" {
			stream = workload.SQuAD(genSeqs, 2, 18)
		} else {
			stream = workload.CNNDailyMail(genSeqs, 3, 18)
		}
		prof := exitsim.ProfileFor(m, stream.Kind)
		e := genserve.NewEngine(m, prof)
		runs := []struct {
			name string
			pol  genserve.Policy
		}{
			{"vanilla", genserve.VanillaGen{}},
			{"free", genserve.NewFREE(m, prof, stream, 0.01)},
			{"apparate", genserve.NewApparateGen(m, prof, 0.01)},
			{"optimal", genserve.NewOptimalGen(m, prof)},
		}
		for _, r := range runs {
			stats := e.Run(stream, r.pol)
			tpt := stats.TPT()
			t5.Rows = append(t5.Rows, []string{
				wl, r.name,
				f2(tpt.Percentile(25)), f2(tpt.Median()), f2(tpt.Percentile(95)),
				f3(stats.MeanScore),
			})
		}
	}

	llama := Table{
		ID:     "fig18",
		Title:  "Llama-2 time-per-token (ms): vanilla vs Apparate vs optimal (SQuAD)",
		Header: []string{"model", "system", "p25", "p50", "p95", "median_win"},
	}
	for _, m := range []*model.Model{model.Llama27B(), model.Llama213B()} {
		prof := exitsim.ProfileFor(m, exitsim.KindSQuAD)
		stream := workload.SQuAD(genSeqs+200, 2, 18)
		e := genserve.NewEngine(m, prof)
		runs := []struct {
			name string
			pol  genserve.Policy
		}{
			{"vanilla", genserve.VanillaGen{}},
			{"apparate", genserve.NewApparateGen(m, prof, 0.01)},
			{"optimal", genserve.NewOptimalGen(m, prof)},
		}
		// runs[0] is vanilla: every row's win is against its median TPT.
		var vMed float64
		for i, r := range runs {
			stats := e.Run(stream, r.pol)
			tpt := stats.TPT()
			if i == 0 {
				vMed = tpt.Median()
			}
			llama.Rows = append(llama.Rows, []string{
				m.Name, r.name,
				f2(tpt.Percentile(25)), f2(tpt.Median()), f2(tpt.Percentile(95)),
				pct(metrics.WinPercent(vMed, tpt.Median())),
			})
		}
	}
	return []Table{t5, llama}
}
