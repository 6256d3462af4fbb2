package controller

import (
	"math"

	"repro/internal/ramp"
)

// EvalResult summarizes a threshold configuration replayed over a record
// window.
type EvalResult struct {
	// AccLoss is the fraction of inputs whose released result would
	// disagree with the original model.
	AccLoss float64
	// SavingFrac is the mean per-input latency saving as a fraction of
	// the model's bs=1 inference latency (ramp overheads included).
	SavingFrac float64
	// ExitCount[i] is the number of window inputs exiting at active
	// ramp i.
	ExitCount []int
}

// EvalThresholds replays the table under the given thresholds and
// reports accuracy and latency effects, accounting for inter-ramp
// dependencies (an input exits at the *earliest* ramp whose score is
// below threshold). Inputs lacking an observation for a ramp (the ramp
// was activated after they were recorded) never exit there. No
// inference is required — exactly the §3.2 evaluation mechanism.
func EvalThresholds(tab Table, thresholds []float64) EvalResult {
	res := EvalResult{ExitCount: make([]int, tab.cols)}
	wrong := 0
	totalSaving := 0.0
	for r := 0; r < tab.n; r++ {
		row := tab.row(r)
		i := exitCol(row, thresholds)
		if i == tab.cols {
			// Non-exits save nothing (and pay all ramp overheads, already
			// in the baseline of "serving with this ramp set").
			continue
		}
		res.ExitCount[i]++
		if !row[i].Match {
			wrong++
		}
		totalSaving += tab.saving[i]
	}
	res.AccLoss = tab.frac(float64(wrong))
	res.SavingFrac = tab.frac(totalSaving)
	return res
}

// exitCol is the exit rule: a row exits at the earliest column whose
// error is below that column's threshold. It returns len(row) when no
// column exits the row; a missing observation (Err = +Inf) never exits.
func exitCol(row []ramp.Observation, thresholds []float64) int {
	for i, ob := range row {
		if ob.Err < thresholds[i] {
			return i
		}
	}
	return len(row)
}

// TuneResult is the outcome of a threshold search.
type TuneResult struct {
	Thresholds []float64
	SavingFrac float64
	AccLoss    float64
	// Evals is the number of configuration evaluations performed, the
	// cost measure behind Figure 10.
	Evals int
}

// GreedySearch is Algorithm 1: hill climbing from all-zero thresholds
// with per-ramp multiplicative-increase/multiplicative-decrease step
// sizes. Each round tentatively raises each ramp's threshold in
// isolation, then commits the single change with the best additional
// saving per unit of additional accuracy loss. Steps double on a
// productive direction and halve when a ramp oversteps the accuracy
// boundary; the search stops when every step has collapsed to minStep
// and no move is admissible.
//
// Steps are positive, so thresholds only rise, and a candidate is scored
// as a change to the committed exits rather than by replaying the table.
// Raising column i's threshold moves exactly the rows that exit after i
// (or nowhere) and whose error at i is below the candidate; every other
// row keeps its exit. One pass over column i gives the candidate's
// mismatch count and how many rows move. A candidate that moves no row
// or breaks the budget is rejected there. For the rest, the savings of
// every row's exit are added again in row order: the additions
// EvalThresholds would make, in its order, so every result is
// bit-identical to evaluating each candidate afresh.
func GreedySearch(tab Table, accBudget, initStep, minStep float64) TuneResult {
	n := tab.cols
	thresholds := make([]float64, n)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = initStep
	}
	x := newExits(tab, thresholds)
	curLoss, curSav := tab.frac(float64(x.wrong)), tab.frac(x.saved)
	evals := 1
	for {
		bestRamp := -1
		bestGain := 0.0
		var bestThreshold, bestSaved float64
		var bestWrong int
		progressPossible := false
		for i := 0; i < n; i++ {
			if thresholds[i] >= 1 {
				continue // threshold saturated
			}
			progressPossible = true
			cand := thresholds[i] + steps[i]
			if cand > 1 {
				cand = 1
			}
			moved, wrong := x.raise(i, cand)
			evals++
			loss := tab.frac(float64(wrong))
			if moved == 0 || loss > accBudget {
				continue // no exit moved, or overstepped the accuracy boundary
			}
			saved := x.savedAfter(i, cand)
			dSav := tab.frac(saved) - curSav
			if dSav <= 0 {
				continue
			}
			dLoss := loss - curLoss
			gain := dSav / (dLoss + 1e-6)
			if bestRamp < 0 || gain > bestGain {
				bestRamp, bestGain, bestThreshold, bestWrong, bestSaved = i, gain, cand, wrong, saved
			}
		}
		if !progressPossible {
			break
		}
		if bestRamp >= 0 {
			thresholds[bestRamp] = bestThreshold
			x.commit(bestRamp, bestThreshold, bestWrong, bestSaved)
			curLoss, curSav = tab.frac(float64(bestWrong)), tab.frac(bestSaved)
			steps[bestRamp] *= 2 // promising direction: speed up
			continue
		}
		// No admissible move this round: every ramp either overstepped
		// the accuracy boundary or has no productive direction at its
		// current step. Shrink steps to hone in on the boundary; stop
		// once every step has bottomed out.
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
	return TuneResult{Thresholds: thresholds, SavingFrac: curSav, AccLoss: curLoss, Evals: evals}
}

// exits is a greedy search's committed state: the column each row exits
// at (tab.cols when it exits nowhere), how many of those exits disagree
// with the original model, and their savings summed in row order.
type exits struct {
	tab   Table
	col   []int32
	wrong int
	saved float64
}

// newExits applies the exit rule to every row under the thresholds, and
// counts and sums the exits as EvalThresholds does.
func newExits(tab Table, thresholds []float64) exits {
	x := exits{tab: tab, col: make([]int32, tab.n)}
	for r := range x.col {
		row := tab.row(r)
		e := exitCol(row, thresholds)
		x.col[r] = int32(e)
		if e < tab.cols {
			if !row[e].Match {
				x.wrong++
			}
			x.saved += tab.saving[e]
		}
	}
	return x
}

// moves reports whether raising column i's threshold to t moves row r's
// exit to i: the row exits after i or nowhere, and its error at i is
// below t.
func (x *exits) moves(r, i int, t float64) bool {
	return int(x.col[r]) > i && x.tab.obs[r*x.tab.cols+i].Err < t
}

// raise scores raising column i's threshold to t: the number of rows
// whose exit moves to i, and the mismatch count after the move.
func (x *exits) raise(i int, t float64) (moved, wrong int) {
	tab := x.tab
	wrong = x.wrong
	for r, e := range x.col {
		if !x.moves(r, i, t) {
			continue
		}
		moved++
		if !tab.obs[r*tab.cols+i].Match {
			wrong++
		}
		if int(e) < tab.cols && !tab.obs[r*tab.cols+int(e)].Match {
			wrong--
		}
	}
	return moved, wrong
}

// savedAfter returns the savings of every row's exit after raising column
// i's threshold to t, added in row order as EvalThresholds adds them.
func (x *exits) savedAfter(i int, t float64) float64 {
	saved := 0.0
	for r, e := range x.col {
		if x.moves(r, i, t) {
			e = int32(i)
		}
		if int(e) < x.tab.cols {
			saved += x.tab.saving[e]
		}
	}
	return saved
}

// commit raises column i's threshold to t, whose mismatch count and
// savings raise and savedAfter returned: only the moved rows change.
func (x *exits) commit(i int, t float64, wrong int, saved float64) {
	for r := range x.col {
		if x.moves(r, i, t) {
			x.col[r] = int32(i)
		}
	}
	x.wrong, x.saved = wrong, saved
}

// GridSearch exhaustively evaluates thresholds over a uniform grid with
// the given step (the paper's comparison baseline, O((1/S)^R)). It
// returns the best-saving configuration within the accuracy budget.
func GridSearch(tab Table, accBudget, step float64) TuneResult {
	n := tab.cols
	levels := int(math.Round(1/step)) + 1
	thresholds := make([]float64, n)
	best := TuneResult{Thresholds: make([]float64, n)}
	evals := 0
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			ev := EvalThresholds(tab, thresholds)
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
