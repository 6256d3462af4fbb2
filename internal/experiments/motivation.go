package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig4", fig4)
	register("fig5", fig5)
	register("table1", table1)
	register("table5", table5)
}

// fig1 reproduces Figure 1: the throughput-latency tradeoff of batched
// serving, sweeping batch sizes 1–16 for four models.
func fig1() []Table {
	t := Table{
		ID:     "fig1",
		Title:  "Throughput-latency tradeoff in model serving (batch sizes 1-16)",
		Header: []string{"model", "batch", "latency_ms", "throughput_qps"},
	}
	for _, name := range []string{"resnet50", "vgg13", "bert-base", "gpt2-medium"} {
		m, err := model.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, b := range []int{1, 2, 4, 8, 16} {
			lat := m.Latency(b)
			t.Rows = append(t.Rows, []string{name, fmt.Sprint(b), f1(lat), f1(float64(b) / lat * 1000)})
		}
	}
	return []Table{t}
}

// fig2 reproduces Figure 2: tuning TF-Serve's max_batch_size lowers
// latencies but harms throughput (bounded-queue rejections under MAF
// bursts).
func fig2() []Table {
	t := Table{
		ID:     "fig2",
		Title:  "TF-Serve max_batch_size knob: latency vs throughput",
		Header: []string{"model", "max_batch", "avg_batch", "p50_ms", "p95_ms", "drop_rate"},
	}
	cases := []struct {
		m      *model.Model
		stream *workload.Stream
	}{
		{model.ResNet50(), workload.Video(0, cvFrames, 120, 2)}, // upsampled to stress batching
		{model.BERTBase(), nlpStream("amazon", model.BERTBase(), 2)},
	}
	for _, c := range cases {
		qps := trace.TargetQPS(c.m)
		for _, mb := range []int{1, 4, 8, 16} {
			h := &serving.VanillaHandler{Model: c.m}
			stats := serving.Run(c.stream.Iter(), h, serving.Options{
				Platform: serving.TFServe, SLOms: c.m.SLO(),
				MaxBatch: mb, BatchTimeoutMS: 1 + float64(mb-1)*1000/qps,
			})
			lat := stats.Latencies()
			t.Rows = append(t.Rows, []string{
				c.m.Name, fmt.Sprint(mb), f2(stats.AvgBatch),
				f1(lat.Median()), f1(lat.Percentile(95)), f3(stats.DropRate),
			})
		}
	}
	return []Table{t}
}

// fig4 reproduces Figure 4: optimal early exiting lowers latencies
// without changing queuing decisions.
func fig4() []Table {
	t := Table{
		ID:     "fig4",
		Title:  "Optimal EEs vs vanilla serving (no queuing changes)",
		Header: []string{"model", "workload", "variant", "p50_ms", "p95_ms"},
	}
	cases := []struct {
		m      *model.Model
		kind   exitsim.Kind
		stream *workload.Stream
	}{
		{model.ResNet50(), exitsim.KindVideo, cvStream(0, 4)},
		{model.BERTBase(), exitsim.KindAmazon, nlpStream("amazon", model.BERTBase(), 4)},
	}
	for _, c := range cases {
		opts := serving.Options{Platform: serving.Clockwork, SLOms: c.m.SLO()}
		v := serving.Run(c.stream.Iter(), &serving.VanillaHandler{Model: c.m}, opts)
		o := serving.Run(c.stream.Iter(), baselines.NewOptimal(c.m, exitsim.ProfileFor(c.m, c.kind)), opts)
		for _, r := range []struct {
			name  string
			stats *serving.Stats
		}{{"vanilla", v}, {"optimal-ee", o}} {
			lat := r.stats.Latencies()
			t.Rows = append(t.Rows, []string{
				c.m.Name, c.stream.Name, r.name, f1(lat.Median()), f1(lat.Percentile(95)),
			})
		}
	}
	return []Table{t}
}

// fig5 reproduces Figure 5: the optimal EE configuration changes
// frequently across 64-request chunks. Per chunk we grid-tune a 2-ramp
// configuration and report how often the best (ramp, threshold) choice
// changes between consecutive chunks.
func fig5() []Table {
	t := Table{
		ID:     "fig5",
		Title:  "Optimal EE configurations churn across 64-request chunks",
		Header: []string{"model", "workload", "chunks", "config_changes", "change_rate"},
	}
	cases := []struct {
		m      *model.Model
		kind   exitsim.Kind
		stream *workload.Stream
	}{
		{model.ResNet50(), exitsim.KindVideo, cvStream(0, 5)},
		{model.BERTBase(), exitsim.KindAmazon, nlpStream("amazon", model.BERTBase(), 5)},
	}
	for _, c := range cases {
		prof := exitsim.ProfileFor(c.m, c.kind)
		cfg := ramp.NewConfig(c.m, prof, 0.02)
		cfg.DeployInitial(ramp.StyleDefault)
		samples := c.stream.Samples()
		const chunk = 64
		nChunks := len(samples) / chunk
		if nChunks > 120 {
			nChunks = 120 // representative prefix keeps the grid cheap
		}
		changes := 0
		var prev []float64
		for i := 0; i < nChunks; i++ {
			tab := controller.NewTable(cfg, samples[i*chunk:(i+1)*chunk])
			res := controller.GreedySearch(tab, 0.01, 0.1, 0.01)
			if prev != nil && !thresholdsEqual(prev, res.Thresholds) {
				changes++
			}
			prev = res.Thresholds
		}
		t.Rows = append(t.Rows, []string{
			c.m.Name, c.stream.Name, fmt.Sprint(nChunks), fmt.Sprint(changes),
			pct(float64(changes) / float64(nChunks-1) * 100),
		})
	}
	return []Table{t}
}

func thresholdsEqual(a, b []float64) bool {
	for i := range a {
		d := a[i] - b[i]
		if d > 0.02 || d < -0.02 {
			return false
		}
	}
	return true
}

// table1 reproduces Table 1: one-time threshold tuning loses accuracy
// under drift; continual tuning holds the constraint at some latency
// cost.
func table1() []Table {
	t := Table{
		ID:     "table1",
		Title:  "Threshold tuning strategies: avg accuracy (median latency win)",
		Header: []string{"strategy", "cv_accuracy", "cv_win", "nlp_accuracy", "nlp_win"},
	}
	type result struct{ acc, win float64 }
	run := func(m *model.Model, kind exitsim.Kind, stream *workload.Stream, strategy string) result {
		prof := exitsim.ProfileFor(m, kind)
		opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
		v := serving.Run(stream.Iter(), &serving.VanillaHandler{Model: m}, opts)
		var stats *serving.Stats
		switch strategy {
		case "initial-only":
			boot := stream.SamplePrefix(stream.Len() / 10)
			h := baselines.StaticEE(m, prof, ramp.StyleDefault, 0.02, baselines.PerRamp, boot, nil, 0.01)
			stats = serving.Run(stream.Iter(), h, opts)
		case "uniform-sample":
			samples := stream.Samples()
			var sampled []exitsim.Sample
			for i := 0; i < len(samples); i += 10 {
				sampled = append(sampled, samples[i])
			}
			h := baselines.StaticEE(m, prof, ramp.StyleDefault, 0.02, baselines.PerRamp, sampled, nil, 0.01)
			stats = serving.Run(stream.Iter(), h, opts)
		case "continual":
			h := serving.NewApparate(m, prof, 0.02, controller.Config{DisableRampAdjust: true})
			stats = serving.Run(stream.Iter(), h, opts)
		}
		return result{
			acc: stats.Accuracy * 100,
			win: metrics.WinPercent(v.Latencies().Median(), stats.Latencies().Median()),
		}
	}
	cvM, nlpM := model.ResNet50(), model.BERTBase()
	cvS := cvStream(1, 6)
	nlpS := nlpStream("amazon", nlpM, 6)
	for _, strat := range []string{"initial-only", "uniform-sample", "continual"} {
		cv := run(cvM, exitsim.KindVideo, cvS, strat)
		nl := run(nlpM, exitsim.KindAmazon, nlpS, strat)
		t.Rows = append(t.Rows, []string{
			strat, pct(cv.acc), pct(cv.win), pct(nl.acc), pct(nl.win),
		})
	}
	return []Table{t}
}

// table5 reproduces Table 5: bs=1 latencies and default SLOs.
func table5() []Table {
	t := Table{
		ID:     "table5",
		Title:  "Per-model bs=1 latency and default SLO (2x, floor 10ms)",
		Header: []string{"model", "latency_bs1_ms", "default_slo_ms"},
	}
	for _, m := range model.ClassificationModels() {
		t.Rows = append(t.Rows, []string{m.Name, f1(m.Latency(1)), f1(m.SLO())})
	}
	return []Table{t}
}
