package controller

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ramp"
	"repro/internal/rng"
)

// naiveGreedy is Algorithm 1 with every candidate scored by replaying
// the whole table through EvalThresholds: the oracle GreedySearch's
// cached scoring must reproduce bit for bit, Evals included.
func naiveGreedy(tab Table, accBudget, initStep, minStep float64) TuneResult {
	eval := func(thresholds []float64) EvalResult { return EvalThresholds(tab, thresholds) }
	return replayGreedy(tab.cols, eval, accBudget, initStep, minStep)
}

// syntheticTable draws a rows × cols replay table. Each column takes its
// errors from one of four mixes: uniform, placed on thresholds the search
// reaches (so strict comparisons are exercised at equality), half
// missing (+Inf), or both placed and uniform. Each column is all-match,
// all-mismatch, or matches at a random rate. Savings fall with depth as
// a deployment's do.
func syntheticTable(r *rng.Rand, rows, cols int) Table {
	onThreshold := []float64{0.1, 0.2, 0.30000000000000004, 1}
	tab := Table{n: rows, cols: cols, stride: cols, obs: make([]ramp.Observation, rows*cols), saving: make([]float64, cols)}
	frac, overhead := 0.0, 0.0
	for i := 0; i < cols; i++ {
		frac += (1 - frac) * r.Float64() / 2
		overhead += 0.004
		tab.saving[i] = (1 + 0.004*float64(cols)) - (frac + overhead)
	}
	for i := 0; i < cols; i++ {
		mix := r.Intn(4)
		matchRate := r.Float64()
		switch r.Intn(4) {
		case 0:
			matchRate = 1
		case 1:
			matchRate = 0
		}
		for row := 0; row < rows; row++ {
			err := r.Float64()
			switch {
			case mix == 1, mix == 3 && r.Bool(0.5):
				err = onThreshold[r.Intn(len(onThreshold))]
			case mix == 2 && r.Bool(0.5):
				err = math.Inf(1)
			}
			tab.obs[row*cols+i] = ramp.Observation{Err: err, Match: r.Bool(matchRate)}
		}
	}
	return tab
}

// TestGreedySearchMatchesNaive compares GreedySearch with naiveGreedy on
// random synthetic tables of 0–600 rows and 1–17 columns, at every budget
// and step schedule checkGreedy uses.
func TestGreedySearchMatchesNaive(t *testing.T) {
	r := rng.New(23)
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rows, cols := r.Intn(601), 1+r.Intn(17)
		if trial == 0 {
			rows = 0
		}
		tab := syntheticTable(r, rows, cols)
		for _, budget := range []float64{0, 0.006, 0.03, 1} {
			for _, st := range [][2]float64{{0.1, 0.01}, {0.25, 0.05}, {0.5, 0.5}} {
				got := GreedySearch(tab, budget, st[0], st[1])
				want := naiveGreedy(tab, budget, st[0], st[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: %d rows × %d columns at budget %v, steps %v: search %+v, naive %+v",
						trial, rows, cols, budget, st, got, want)
				}
			}
		}
	}
}

// TestGreedySearchConcurrent runs searches on tables of different shapes
// from several goroutines at once, so the race detector sees the search
// state that searches share through their pool, and checks every result
// against the same search run alone.
func TestGreedySearchConcurrent(t *testing.T) {
	r := rng.New(7)
	tabs := make([]Table, 6)
	want := make([]TuneResult, len(tabs))
	for k := range tabs {
		tabs[k] = syntheticTable(r, 50+r.Intn(400), 1+r.Intn(17))
		want[k] = GreedySearch(tabs[k], 0.03, 0.1, 0.01)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				k := (g + rep) % len(tabs)
				if got := GreedySearch(tabs[k], 0.03, 0.1, 0.01); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, table %d: %+v, alone %+v", g, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
