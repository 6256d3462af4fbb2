// Generative serving: per-token early exits with synchronized parallel
// decoding (§3.4). Serves summarization and question answering through
// T5-large and the Llama-2 models, reporting time-per-token against
// vanilla decoding and the sequence-quality proxy.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	cases := []struct {
		model, wl string
		n         int
	}{
		{"t5-large", "cnn-dailymail", 400},
		{"t5-large", "squad", 600},
		{"llama2-7b", "squad", 1000},
		{"llama2-13b", "squad", 1000},
	}
	fmt.Println("generative serving with token-level exits + parallel decoding")
	fmt.Printf("\n%-12s %-14s %10s %10s %8s %9s %7s\n",
		"model", "workload", "van_tpt", "app_tpt", "win", "p95_ratio", "score")
	for _, c := range cases {
		// A generative scenario's latencies are time-per-token and its
		// accuracy the sequence score.
		res, err := core.RunScenario(core.Scenario{Model: c.model, Workload: c.wl, N: c.n, Seed: 9})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		v, a := res.Vanilla, res.Apparate
		fmt.Printf("%-12s %-14s %8.2fms %8.2fms %7.1f%% %9.3f %7.3f\n",
			c.model, c.wl, v.P50ms, a.P50ms, res.P50Win, a.P95ms/v.P95ms, a.Accuracy)
	}
	fmt.Println("\nmedian TPT falls sharply; P95 can exceed vanilla slightly because")
	fmt.Println("non-exiting tokens catch up the deferred layers of exited tokens.")
}
