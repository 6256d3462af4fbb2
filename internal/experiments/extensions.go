package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("exitrules", exitRules)
	register("cluster", cluster)
}

// exitRules is an extension study for the §5 observation that Apparate
// is agnostic to the exit technique: the same controller manages
// entropy, windowed-entropy, and patience-based exiting. Patience-style
// rules are stricter (exit later), trading wins for robustness; the
// accuracy constraint must hold for all of them.
func exitRules() []Table {
	t := Table{
		ID:     "exitrules",
		Title:  "Exit strategies under Apparate's controller (ResNet-50, video)",
		Header: []string{"rule", "median_win", "accuracy", "exit_rate"},
	}
	m := model.ResNet50()
	stream := cvStream(0, 28)
	opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
	v := serveVanilla(m, stream, opts)
	for _, rule := range []exitrule.Rule{
		exitrule.Entropy{},
		exitrule.Windowed{K: 2},
		exitrule.Patience{P: 2},
	} {
		h := serving.NewApparate(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02, controller.Config{})
		h.Cfg.Rule = rule
		stats := serving.Run(stream.Iter(), h, opts)
		t.Rows = append(t.Rows, []string{
			rule.Name(),
			pct(metrics.WinPercent(v.Latencies().Median(), stats.Latencies().Median())),
			pct(stats.Accuracy * 100),
			pct(float64(stats.Exits) / float64(stats.Total) * 100),
		})
	}
	return []Table{t}
}

// cluster is an extension study of multi-replica serving: the paper runs
// one Apparate controller per replica; aggregate capacity scales while
// each controller adapts to its traffic slice and the accuracy
// constraint holds cluster-wide.
func cluster() []Table {
	t := Table{
		ID:     "cluster",
		Title:  "Multi-replica serving (BERT-base, Amazon at 2x single-replica rate)",
		Header: []string{"replicas", "dispatch", "drop_rate", "p50_ms", "accuracy"},
	}
	m := model.BERTBase()
	streamHot := workload.Amazon(nlpSamples, trace.TargetQPS(m)*2, 29)
	prof := exitsim.ProfileFor(m, exitsim.KindAmazon)
	opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
	for _, replicas := range []int{1, 2, 3} {
		for _, d := range []serving.Dispatch{serving.RoundRobin, serving.LeastLoaded} {
			if replicas == 1 && d == serving.LeastLoaded {
				continue // identical to round-robin with one replica
			}
			cs := serving.RunCluster(streamHot, func(int) serving.Handler {
				return serving.NewApparate(m, prof, 0.02, controller.Config{})
			}, serving.ClusterOptions{Options: opts, Replicas: replicas, Dispatch: d})
			st := cs.Merged
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(replicas), d.String(),
				f3(st.DropRate), f1(st.Latencies().Median()), pct(st.Accuracy * 100),
			})
		}
	}
	return []Table{t}
}
