// Command apparate-trace generates and inspects workload and arrival
// traces: per-second arrival rates, difficulty statistics, and regime
// structure. Useful for understanding what the adaptation loops face.
//
// The trace is streamed from the workload iterator in a single pass:
// nothing is materialized, so inspecting a million-request trace costs
// the same memory as a thousand-request one (with -metrics sketch, the
// difficulty distribution is sketched too, keeping the whole run O(1)).
//
// Usage:
//
//	apparate-trace -workload amazon -n 20000 -qps 30
//	apparate-trace -workload video-1 -n 12000
//	apparate-trace -workload amazon -n 1000000 -qps 200 -metrics sketch
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	var (
		wlName = flag.String("workload", "video-0", "workload: video-0..7, amazon, imdb")
		n      = flag.Int("n", 12000, "number of requests")
		qps    = flag.Float64("qps", 30, "mean arrival rate")
		seed   = flag.Uint64("seed", 1, "seed")
		binSec = flag.Float64("bin", 10, "histogram bin width in seconds")
		mdName = flag.String("metrics", "exact", "difficulty recorder: exact | sketch (use sketch for -n in the millions)")
		cpu    = flag.String("cpuprofile", "", "write a pprof CPU profile of the streaming pass to this file")
	)
	flag.Parse()
	if err := checkFlags(*n, *qps, *binSec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	mode, err := metrics.ParseMode(*mdName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stream, err := workload.ByName(*wlName, *n, *qps, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// One streaming pass: difficulty stats, bias counts, and the
	// per-second arrival histogram accumulate as requests are generated.
	diff := metrics.NewRecorder(mode, stream.Len())
	biased := 0
	bin := *binSec * 1000
	counts := map[int]int{}
	maxBin := 0
	last := 0.0
	it := stream.Iter()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		diff.Add(r.Sample.Difficulty)
		if r.Sample.Bias > 0 {
			biased++
		}
		b := int(r.ArrivalMS / bin)
		counts[b]++
		if b > maxBin {
			maxBin = b
		}
		last = r.ArrivalMS
	}

	fmt.Printf("workload=%s n=%d span=%.1fs realized_rate=%s\n",
		stream.Name, stream.Len(), last/1000, realizedRate(stream.Len(), last))
	fmt.Printf("difficulty: p25=%.3f p50=%.3f p95=%.3f mean=%.3f\n",
		diff.Percentile(25), diff.Median(), diff.Percentile(95), diff.Mean())
	fmt.Printf("biased requests: %.1f%%\n", float64(biased)/float64(stream.Len())*100)

	// Arrival-rate histogram over time bins.
	fmt.Println("\narrival rate over time:")
	step := 1
	if maxBin > 24 {
		step = maxBin / 24
	}
	for b := 0; b <= maxBin; b += step {
		total := 0
		for i := b; i < b+step && i <= maxBin; i++ {
			total += counts[i]
		}
		rate := float64(total) / (*binSec * float64(step))
		bar := int(rate / 2)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("%6.0fs %6.1fqps ", float64(b)*(*binSec), rate)
		for i := 0; i < bar; i++ {
			fmt.Print("#")
		}
		fmt.Println()
	}
}

// checkFlags rejects what no trace can be built or summarized from: a
// request count that is not positive, and an arrival rate or histogram
// bin width that is not positive and finite.
func checkFlags(n int, qps, binSec float64) error {
	// !(v > 0) also rejects NaN, which compares false to everything.
	switch {
	case n <= 0:
		return fmt.Errorf("apparate-trace: -n %d must be positive", n)
	case !(qps > 0) || math.IsInf(qps, 0):
		return fmt.Errorf("apparate-trace: -qps %g must be positive and finite", qps)
	case !(binSec > 0) || math.IsInf(binSec, 0):
		return fmt.Errorf("apparate-trace: -bin %g must be positive and finite", binSec)
	}
	return nil
}

// realizedRate renders n arrivals over the spanMS from the first (at 0)
// to the last as a rate. A span of 0, such as a one-frame video stream
// whose frame arrives at 0, has no rate.
func realizedRate(n int, spanMS float64) string {
	if spanMS <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fqps", float64(n)/(spanMS/1000))
}
