package repro

import (
	"fmt"
	"testing"

	"repro/internal/sweep"
)

// BenchmarkSweepGrid runs a mixed CV/NLP/generative grid through the
// parallel scenario runner, measuring end-to-end grid throughput at full
// parallelism (workers = GOMAXPROCS). The paper's artifacts have no
// benchmark here: TestGoldenTables renders each one, and
// `apparate-bench -count N` times them.
func BenchmarkSweepGrid(b *testing.B) {
	grid := sweep.Grid{
		Models:    []string{"resnet18", "resnet50", "distilbert-base", "t5-large"},
		Workloads: []string{"video-0", "amazon", "cnn-dailymail"},
		Budgets:   []float64{0.01, 0.02},
		N:         2000,
		GenN:      10,
		Seed:      1,
	}
	scenarios, err := grid.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sweep.Run(scenarios, sweep.Options{})
		for _, r := range results {
			if r.Err != "" {
				b.Fatalf("%s: %s", r.Scenario.Key(), r.Err)
			}
		}
		if i == 0 {
			fmt.Printf("sweep: %d scenarios\n", len(results))
		}
	}
}
