// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation. Each benchmark regenerates the
// artifact through internal/experiments and prints the reproduced rows
// once, so `go test -bench=. -benchmem` doubles as the full reproduction
// run.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// runExperiment executes one registered experiment per benchmark
// iteration, printing the tables on the first iteration only.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				fmt.Println(t.String())
			}
		}
	}
}

// Motivation (§2).

func BenchmarkFig01(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig02(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig04(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig05(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkTable01(b *testing.B) { runExperiment(b, "table1") }

// Design studies (§3).

func BenchmarkFig08(b *testing.B) { runExperiment(b, "fig8") }
func BenchmarkFig09(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// Classification evaluation (§4.2).

func BenchmarkFig12(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)     { runExperiment(b, "fig17") }
func BenchmarkQuantized(b *testing.B) { runExperiment(b, "quant") }

// Generative evaluation (§4.3).

func BenchmarkFig18(b *testing.B) { runExperiment(b, "fig18") }

// Baseline comparisons (§4.4).

func BenchmarkTable02(b *testing.B) { runExperiment(b, "table2") }

// Microbenchmarks (§4.5).

func BenchmarkFig19(b *testing.B)     { runExperiment(b, "fig19") }
func BenchmarkTable03(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkTable04(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkTable05(b *testing.B)   { runExperiment(b, "table5") }
func BenchmarkRampStyle(b *testing.B) { runExperiment(b, "rampstyle") }
func BenchmarkAblation(b *testing.B)  { runExperiment(b, "ablation") }

// Extension studies beyond the paper's artifacts.

func BenchmarkExitRules(b *testing.B) { runExperiment(b, "exitrules") }
func BenchmarkCluster(b *testing.B)   { runExperiment(b, "cluster") }

// Sweep engine: a mixed CV/NLP/generative grid through the parallel
// scenario runner, measuring end-to-end grid throughput at full
// parallelism (workers = GOMAXPROCS).

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
