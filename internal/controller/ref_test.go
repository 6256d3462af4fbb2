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
	eval := func(thresholds []float64) EvalResult { return refEval(cfg, recs, thresholds) }
	return replayGreedy(len(cfg.Active), eval, accBudget, initStep, minStep)
}

// replayGreedy is Algorithm 1 over n ramps with every candidate scored
// by eval, a full replay of the window under the candidate thresholds.
func replayGreedy(n int, eval func([]float64) EvalResult, accBudget, initStep, minStep float64) TuneResult {
	thresholds := make([]float64, n)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = initStep
	}
	cur := eval(thresholds)
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
			ev := eval(thresholds)
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

// refWindowTable is the window table built from the records of the
// window's inputs, each taken before the controller observed it: over
// cfg's active set, a ramp's cell is its recorded observation, or missing
// where the ramp was not active. It is the reference the controller's
// window table must equal, built without reading the controller.
func refWindowTable(cfg *ramp.Config, recs []record) Table {
	cols := len(cfg.Active)
	t := Table{n: len(recs), cols: cols, stride: cols, saving: savings(nil, cfg)}
	t.obs = make([]ramp.Observation, 0, len(recs)*cols)
	missing := ramp.Observation{Err: math.Inf(1)}
	for _, rec := range recs {
		for _, r := range cfg.Active {
			ob, ok := rec[r.Site.NodeID]
			if !ok {
				ob = missing
			}
			t.obs = append(t.obs, ob)
		}
	}
	return t
}

// checkKept fails unless, after input step, the controller's window
// table follows the active set and equals the table built from recs, the
// records of every input so far, cell for cell.
func checkKept(t *testing.T, ctl *Controller, recs []record, step int) {
	t.Helper()
	if !ctl.tableCurrent() {
		t.Fatalf("input %d: the kept table's columns are not the active set", step)
	}
	recs = recs[max(0, len(recs)-ctl.Opts.RecordWindow):]
	got, want := ctl.windowTable(), refWindowTable(ctl.Cfg, recs)
	if got.n != want.n || got.cols != want.cols {
		t.Fatalf("input %d: kept table is %d×%d, reference %d×%d", step, got.n, got.cols, want.n, want.cols)
	}
	if !slices.Equal(got.saving, want.saving) {
		t.Fatalf("input %d: kept savings %v, reference %v", step, got.saving, want.saving)
	}
	for r := 0; r < want.n; r++ {
		if !slices.Equal(got.row(r), want.row(r)) {
			t.Fatalf("input %d: row %d of %d is %v, reference %v", step, r, want.n, got.row(r), want.row(r))
		}
	}
}

// TestKeptTableFollowsAdaptation checks the kept window table after
// every input of a drifting stream on which both loops fire: threshold
// tuning on accuracy drops and ramp adjustment every 32 inputs, which
// activates and deactivates ramps, over a 128-input window that slides
// many times. Some ramps must come back while the window still holds
// their observations, which the table then restores from a retired
// column.
func TestKeptTableFollowsAdaptation(t *testing.T) {
	cfg := newCfg()
	const window = 128
	ctl := New(cfg, Config{RecordWindow: window, AdjustEvery: 32})
	changes, restored := 0, 0
	nodes := func() []int {
		var ids []int
		for _, r := range cfg.Active {
			ids = append(ids, r.Site.NodeID)
		}
		return ids
	}
	prev := nodes()
	var recs []record
	for i, s := range workload.Video(3, 4000, 30, 5).Samples() {
		out := cfg.Evaluate(s, 1)
		// A round inside Observe can change the active set, so the
		// record is taken first.
		recs = append(recs, newRecord(cfg, out))
		ctl.Observe(out)
		checkKept(t, ctl, recs, i)
		cur := nodes()
		if slices.Equal(cur, prev) {
			continue
		}
		if i >= window {
			changes++
		}
		for _, id := range cur {
			if slices.Contains(prev, id) {
				continue
			}
			for _, rec := range recs[max(0, len(recs)-window):] {
				if _, ok := rec[id]; ok {
					restored++
					break
				}
			}
		}
		prev = cur
	}
	t.Logf("%d tune rounds, %d adjust rounds, %d active-set changes after the window filled, %d ramps restored",
		ctl.TuneRounds, ctl.AdjustRounds, changes, restored)
	if ctl.TuneRounds == 0 || ctl.AdjustRounds == 0 || changes == 0 || restored == 0 {
		t.Fatalf("%d tune rounds, %d adjust rounds, %d active-set changes after the window filled and %d ramps restored; the test needs all four",
			ctl.TuneRounds, ctl.AdjustRounds, changes, restored)
	}
}

// TestWindowTableMatchesReference records a drifting video stream while
// the active set changes under the window — ramps deactivated and
// activated, the whole set emptied and rebuilt, one outcome recorded
// after a ramp joined behind it — checks the kept table after every
// input, and checks every table-based evaluator against its reference
// on the same records.
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
		if i == 870 {
			// An outcome evaluated before the deepest site joined the
			// set records only the ramps ahead of it.
			activate(len(sites) - 1)
		}
		recs = append(recs, newRecord(cfg, out))
		ctl.Observe(out)
		checkKept(t, ctl, recs, i)
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

// TestObserveSteadyStateZeroAlloc pins the recording path: once the
// window is full, Observe writes each input's row into the window
// table's storage, which a full window slides within, and allocates
// nothing unless a round fires.
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

// TestObserveWarmUpAllocBudget pins the recording path while the window
// fills: a fresh controller's first 375 observations, one cluster-chaos
// replica's share of its scenario, allocate twice for the window table's
// columns on the first input, and twice for its storage (a quarter of
// the window, then all of it), not once per input.
func TestObserveWarmUpAllocBudget(t *testing.T) {
	const n, runs, budget = 375, 20, 4
	cfg := newCfg()
	outs := make([]ramp.Outcome, n)
	for i, s := range videoSamples(n) {
		outs[i] = cfg.Evaluate(s, 1)
		outs[i].PerRamp = slices.Clone(outs[i].PerRamp)
		outs[i].Correct = true
	}
	// AllocsPerRun calls the function once more than runs to warm up,
	// and each call fills a controller of its own.
	ctls := make([]*Controller, runs+1)
	for i := range ctls {
		ctls[i] = New(cfg, Config{AdjustEvery: 1 << 30})
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, out := range outs {
			ctls[k].Observe(out)
		}
		k++
	})
	for _, ctl := range ctls {
		if ctl.TuneRounds != 0 || ctl.AdjustRounds != 0 {
			t.Fatalf("a round fired (%d tune, %d adjust); the pin measures recording alone", ctl.TuneRounds, ctl.AdjustRounds)
		}
	}
	t.Logf("%d warm-up observations: %v allocations", n, allocs)
	if allocs > budget {
		t.Fatalf("%d warm-up observations allocate %v times, budget %d", n, allocs, budget)
	}
}
