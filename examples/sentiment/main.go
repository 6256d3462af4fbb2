// Sentiment analysis: the paper's NLP classification scenario. Serves
// the Amazon and IMDB review streams through the BERT family on both
// serving platforms, showing that wins grow with model size and are
// insensitive to the platform underneath (§4.2, Table 4).
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/serving"
)

func main() {
	const n = 15000
	fmt.Println("sentiment analysis over review streams (MAF arrivals)")
	fmt.Printf("\n%-16s %-7s %-10s %9s %9s %8s %7s\n",
		"model", "dataset", "platform", "van_p50", "app_p50", "win", "acc")
	for _, name := range []string{"distilbert-base", "bert-base", "bert-large"} {
		for _, dataset := range []string{"amazon", "imdb"} {
			for _, platform := range serving.Platforms() {
				// The review stream arrives at the model's sustainable
				// trace-derived rate.
				res, err := core.RunScenario(core.Scenario{
					Model: name, Workload: dataset, Platform: platform, N: n, Seed: 7,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("%-16s %-7s %-10s %7.1fms %7.1fms %7.1f%% %6.2f%%\n",
					name, dataset, platform, res.Vanilla.P50ms, res.Apparate.P50ms,
					res.P50Win, res.Apparate.Accuracy*100)
			}
		}
	}
	fmt.Println("\nNLP wins are smaller than CV (queuing delays + weak inter-request")
	fmt.Println("continuity), and absolute savings grow with model size.")
}
