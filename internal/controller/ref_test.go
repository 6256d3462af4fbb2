package controller

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ramp"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The evaluators below are the map-walking originals the replay table
// replaced: each window record maps a site node ID to its observation,
// and every candidate looks each ramp up again. They are kept as the
// references the table must reproduce bit for bit.

// record is one input's observations keyed by site node ID.
type record map[int]ramp.Observation

func newRecord(cfg *ramp.Config, out ramp.Outcome) record {
	rec := make(record, len(out.PerRamp))
	for i, ob := range out.PerRamp {
		rec[cfg.Active[i].Site.NodeID] = ob
	}
	return rec
}

func refEval(cfg *ramp.Config, recs []record, thresholds []float64) EvalResult {
	res := EvalResult{ExitCount: make([]int, len(cfg.Active))}
	if len(recs) == 0 {
		return res
	}
	wrong := 0
	totalSaving := 0.0
	allOverhead := cfg.OverheadFrac()
	for _, rec := range recs {
		exit := -1
		overheadUpTo := 0.0
		var exitFrac, exitOverhead float64
		var match bool
		for i, r := range cfg.Active {
			overheadUpTo += r.Style.OverheadFrac
			ob, ok := rec[r.Site.NodeID]
			if !ok {
				continue
			}
			if ob.Err < thresholds[i] {
				exit = i
				exitFrac = r.Site.Frac
				exitOverhead = overheadUpTo
				match = ob.Match
				break
			}
		}
		if exit >= 0 {
			res.ExitCount[exit]++
			if !match {
				wrong++
			}
			totalSaving += (1 + allOverhead) - (exitFrac + exitOverhead)
		}
	}
	n := float64(len(recs))
	res.AccLoss = float64(wrong) / n
	res.SavingFrac = totalSaving / n
	return res
}

func refUtilities(cfg *ramp.Config, recs []record) []Utility {
	out := make([]Utility, len(cfg.Active))
	base := cfg.Model.Latency(1)
	for i, r := range cfg.Active {
		out[i].NodeID = r.Site.NodeID
	}
	for _, rec := range recs {
		exited := false
		for i, r := range cfg.Active {
			ob, ok := rec[r.Site.NodeID]
			if exited {
				break
			}
			if ok && ob.Err < r.Threshold {
				out[i].Savings += base * (1 - r.Site.Frac)
				out[i].Exits++
				exited = true
			} else {
				out[i].Overhead += base * r.Style.OverheadFrac
			}
		}
	}
	return out
}

func refGreedy(cfg *ramp.Config, recs []record, accBudget, initStep, minStep float64) TuneResult {
	n := len(cfg.Active)
	thresholds := make([]float64, n)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = initStep
	}
	cur := refEval(cfg, recs, thresholds)
	evals := 1
	for {
		bestRamp := -1
		bestGain := 0.0
		var bestEval EvalResult
		var bestThreshold float64
		progressPossible := false
		for i := 0; i < n; i++ {
			if thresholds[i] >= 1 {
				continue
			}
			progressPossible = true
			cand := thresholds[i] + steps[i]
			if cand > 1 {
				cand = 1
			}
			old := thresholds[i]
			thresholds[i] = cand
			ev := refEval(cfg, recs, thresholds)
			evals++
			thresholds[i] = old
			if ev.AccLoss > accBudget {
				continue
			}
			dSav := ev.SavingFrac - cur.SavingFrac
			if dSav <= 0 {
				continue
			}
			dLoss := ev.AccLoss - cur.AccLoss
			gain := dSav / (dLoss + 1e-6)
			if bestRamp < 0 || gain > bestGain {
				bestRamp, bestGain, bestEval, bestThreshold = i, gain, ev, cand
			}
		}
		if !progressPossible {
			break
		}
		if bestRamp >= 0 {
			thresholds[bestRamp] = bestThreshold
			cur = bestEval
			steps[bestRamp] *= 2
			continue
		}
		allMin := true
		for i := range steps {
			if steps[i] > minStep {
				steps[i] /= 2
				if steps[i] < minStep {
					steps[i] = minStep
				}
				allMin = false
			}
		}
		if allMin {
			break
		}
	}
	return TuneResult{Thresholds: thresholds, SavingFrac: cur.SavingFrac, AccLoss: cur.AccLoss, Evals: evals}
}

func refGrid(cfg *ramp.Config, recs []record, accBudget, step float64) TuneResult {
	n := len(cfg.Active)
	levels := int(math.Round(1/step)) + 1
	thresholds := make([]float64, n)
	best := TuneResult{Thresholds: make([]float64, n)}
	evals := 0
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			ev := refEval(cfg, recs, thresholds)
			evals++
			if ev.AccLoss <= accBudget && ev.SavingFrac > best.SavingFrac {
				copy(best.Thresholds, thresholds)
				best.SavingFrac = ev.SavingFrac
				best.AccLoss = ev.AccLoss
			}
			return
		}
		for l := 0; l < levels; l++ {
			thresholds[i] = float64(l) * step
			walk(i + 1)
		}
		thresholds[i] = 0
	}
	walk(0)
	best.Evals = evals
	return best
}

// TestWindowTableMatchesReference records a drifting video stream while
// the active set changes under the window — ramps deactivated and
// activated, the whole set emptied and rebuilt — and checks every
// table-based evaluator against its reference on the same records.
func TestWindowTableMatchesReference(t *testing.T) {
	cfg := newCfg()
	const window = 300
	// No round may fire: the test alone decides the active set.
	ctl := New(cfg, Config{RecordWindow: window, AccConstraint: 1, AdjustEvery: 1 << 30})
	sites := cfg.Sites
	activate := func(i int) {
		if err := cfg.Activate(sites[i], ramp.StyleDefault); err != nil {
			t.Fatal(err)
		}
	}
	var recs []record
	for i, s := range workload.Video(1, 1000, 30, 8).Samples() {
		switch i {
		case 720: // rows recorded with no ramp at all
			for len(cfg.Active) > 0 {
				cfg.Deactivate(0)
			}
		case 760:
			activate(1)
			activate(len(sites) / 2)
		case 830:
			activate(len(sites) - 2)
		case 900:
			cfg.Deactivate(0)
			activate(len(sites) / 4)
		}
		out := cfg.Evaluate(s, 1)
		ctl.Observe(out)
		recs = append(recs, newRecord(cfg, out))
	}
	recs = recs[len(recs)-window:]
	tab := ctl.windowTable()
	if tab.Len() != window || tab.cols != len(cfg.Active) {
		t.Fatalf("table is %d×%d, want %d×%d", tab.Len(), tab.cols, window, len(cfg.Active))
	}
	missing, empty := 0, 0
	for r := 0; r < tab.Len(); r++ {
		for _, ob := range tab.row(r) {
			if math.IsInf(ob.Err, 1) {
				missing++
			}
		}
		if len(recs[r]) == 0 {
			empty++
		}
	}
	if missing == 0 || empty == 0 {
		t.Fatalf("window lost its coverage: %d missing cells, %d rows with no observation", missing, empty)
	}

	r := rng.New(5)
	randomThresholds := func() []float64 {
		ts := make([]float64, len(cfg.Active))
		for i := range ts {
			switch r.Intn(4) {
			case 0:
			case 1:
				ts[i] = 1
			default:
				ts[i] = r.Float64()
			}
		}
		return ts
	}
	for trial := 0; trial < 300; trial++ {
		ts := randomThresholds()
		lo := r.Intn(window)
		hi := lo + r.Intn(window-lo+1)
		if got, want := EvalThresholds(tab.Rows(lo, hi), ts), refEval(cfg, recs[lo:hi], ts); !reflect.DeepEqual(got, want) {
			t.Fatalf("rows [%d,%d) thresholds %v: table %+v, reference %+v", lo, hi, ts, got, want)
		}
		cfg.SetThresholds(randomThresholds())
		if got, want := ctl.utilities(tab), refUtilities(cfg, recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("utilities under %v: table %+v, reference %+v", cfg.Thresholds(), got, want)
		}
	}
	for _, budget := range []float64{0.006, 0.03} {
		if got, want := GridSearch(tab, budget, 0.25), refGrid(cfg, recs, budget, 0.25); !reflect.DeepEqual(got, want) {
			t.Fatalf("grid at budget %v: table %+v, reference %+v", budget, got, want)
		}
	}
	// The greedy search scores each candidate as a change to its
	// committed exits. Check it on empty, one-row and training views and
	// on the whole window with its +Inf cells, then on a table with many
	// ramps: resnet50 deploys all 17 of its sites at a 0.1 budget.
	for _, hi := range []int{0, 1, window * 3 / 5, window} {
		checkGreedy(t, tab.Rows(0, hi), cfg, recs[:hi])
	}
	wide := ramp.NewConfig(cfg.Model, cfg.Profile, 0.1)
	wide.DeployInitial(ramp.StyleDefault)
	if len(wide.Active) != 17 {
		t.Fatalf("wide configuration deploys %d ramps, want 17", len(wide.Active))
	}
	samples := workload.Video(1, window, 30, 8).Samples()
	recs = recs[:0]
	for _, s := range samples {
		recs = append(recs, newRecord(wide, wide.Evaluate(s, 1)))
	}
	checkGreedy(t, NewTable(wide, samples), wide, recs)
}

// checkGreedy compares GreedySearch on tab with refGreedy on the same
// records, Evals included, across accuracy budgets and step schedules.
func checkGreedy(t *testing.T, tab Table, cfg *ramp.Config, recs []record) {
	t.Helper()
	for _, budget := range []float64{0, 0.006, 0.03, 1} {
		for _, st := range [][2]float64{{0.1, 0.01}, {0.25, 0.05}, {0.5, 0.5}} {
			got := GreedySearch(tab, budget, st[0], st[1])
			want := refGreedy(cfg, recs, budget, st[0], st[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("greedy over %d rows × %d ramps at budget %v, steps %v: table %+v, reference %+v",
					tab.Len(), len(cfg.Active), budget, st, got, want)
			}
		}
	}
}

// TestObserveSteadyStateZeroAlloc pins the recording path: once every
// window slot has been written, Observe reuses the slot storage and the
// active-set layout and allocates nothing unless a round fires.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	cfg := newCfg()
	ctl := New(cfg, Config{AdjustEvery: 1 << 30})
	samples := videoSamples(ctl.Opts.RecordWindow)
	outs := make([]ramp.Outcome, len(samples))
	for i, s := range samples {
		// Evaluate's observations live in one buffer that the next call
		// overwrites, so each kept outcome takes a copy.
		outs[i] = cfg.Evaluate(s, 1)
		outs[i].PerRamp = slices.Clone(outs[i].PerRamp)
		outs[i].Correct = true
		ctl.Observe(outs[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		ctl.Observe(outs[i%len(outs)])
		i++
	})
	if ctl.TuneRounds != 0 || ctl.AdjustRounds != 0 {
		t.Fatalf("a round fired (%d tune, %d adjust); the pin measures recording alone", ctl.TuneRounds, ctl.AdjustRounds)
	}
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call in steady state, want 0", allocs)
	}
}
