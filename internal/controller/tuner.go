package controller

import "math"

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
	if tab.n == 0 {
		return res
	}
	wrong := 0
	totalSaving := 0.0
	for r := 0; r < tab.n; r++ {
		for i, ob := range tab.row(r) {
			if ob.Err < thresholds[i] {
				res.ExitCount[i]++
				if !ob.Match {
					wrong++
				}
				totalSaving += tab.saving[i]
				break
			}
		}
		// Non-exits save nothing (and pay all ramp overheads, already in
		// the baseline of "serving with this ramp set").
	}
	n := float64(tab.n)
	res.AccLoss = float64(wrong) / n
	res.SavingFrac = totalSaving / n
	return res
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
func GreedySearch(tab Table, accBudget, initStep, minStep float64) TuneResult {
	n := tab.cols
	thresholds := make([]float64, n)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = initStep
	}
	cur := EvalThresholds(tab, thresholds)
	evals := 1
	for {
		bestRamp := -1
		bestGain := 0.0
		var bestEval EvalResult
		var bestThreshold float64
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
			old := thresholds[i]
			thresholds[i] = cand
			ev := EvalThresholds(tab, thresholds)
			evals++
			thresholds[i] = old
			if ev.AccLoss > accBudget {
				continue // overstepped the accuracy boundary
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
	return TuneResult{Thresholds: thresholds, SavingFrac: cur.SavingFrac, AccLoss: cur.AccLoss, Evals: evals}
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
