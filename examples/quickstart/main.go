// Quickstart: register a model with Apparate, serve a video workload,
// and compare latencies against vanilla serving — the minimal end-to-end
// use of the public API.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
)

func main() {
	// 1. Pick a model from the zoo. Graph shape and latency profile are
	// calibrated to the paper's Table 5.
	m := model.ResNet50()
	fmt.Printf("model %s: %d graph operators, %d feasible ramp sites\n",
		m.Name, m.Graph.Len(), len(m.FeasibleRamps()))

	// 2. Describe the deployment as a scenario: the model, one of the
	// eight 30fps videos, and Apparate's two parameters, left at the
	// paper's defaults (a 1% accuracy constraint and a 2% ramp budget).
	sc := core.Scenario{Model: m.Name, Workload: "video-0", N: 10000, Seed: 1}

	// 3. Run it. RunScenario serves the stream twice: vanilla, and with
	// Apparate managing exits. Apparate deploys evenly spaced ramps on
	// the feasible sites with zero thresholds — exiting only begins once
	// the runtime controller has evidence it is safe.
	res, err := core.RunScenario(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\n%-12s %10s %10s %8s\n", "percentile", "vanilla", "apparate", "win")
	for _, r := range []struct{ p, v, a float64 }{
		{25, res.Vanilla.P25ms, res.Apparate.P25ms},
		{50, res.Vanilla.P50ms, res.Apparate.P50ms},
		{95, res.Vanilla.P95ms, res.Apparate.P95ms},
	} {
		fmt.Printf("p%-11.0f %8.2fms %8.2fms %7.1f%%\n", r.p, r.v, r.a, metrics.WinPercent(r.v, r.a))
	}
	fmt.Printf("\naccuracy vs original model: %.2f%% (constraint: >= 99%%)\n", res.Apparate.Accuracy*100)
	fmt.Printf("throughput: vanilla %.1f qps, apparate %.1f qps\n",
		res.Vanilla.Throughput, res.Apparate.Throughput)
	fmt.Printf("adaptation: %d threshold-tuning rounds, %d ramp-adjustment rounds\n",
		res.TuneRounds, res.AdjustRounds)
}
