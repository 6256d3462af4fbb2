package perf

import (
	"sort"
	"sync"
	"time"
)

// Host times drift with the load other tenants put on a shared machine:
// whole 20 s runs of the same pass moved by up to 50% within minutes,
// and CPU time moved with them. Each child therefore times a fixed loop
// that no code of this repository takes part in, before and after its
// pass, on as many goroutines as the pass has workers, and every host
// time the benchmark reports is scaled to the speed at which that loop
// takes RefCalib. The loop's own time is reported as bench.calib_ms.

// RefCalib is the calibration loop's median time on the 2-CPU machine
// the baseline was recorded on.
const RefCalib = 56 * time.Millisecond

// Calibrate runs the calibration loop on the given number of goroutines
// at once and returns the time until all have finished.
func Calibrate(goroutines int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibLoop()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibLoop is four rounds of filling 2^17 float64s from a xorshift
// generator and sorting them.
func calibLoop() {
	xs := make([]float64, 1<<17)
	for r := 0; r < 4; r++ {
		x := uint64(r + 1)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x>>11) / (1 << 53)
		}
		sort.Float64s(xs)
	}
}
