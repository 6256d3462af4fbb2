package controller

import (
	"math"
	"slices"
	"sync"

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
// row keeps its exit. The moved rows give the candidate's mismatch count,
// and a candidate that moves no row or breaks the budget is rejected
// there. For the rest, the savings of every row's exit are added again in
// row order: the additions EvalThresholds would make, in its order, so
// every result is bit-identical to evaluating each candidate afresh.
//
// Each ramp's scored candidate is kept across rounds: its threshold, the
// rows it moves in row order, and their mismatch change. Within a search
// exits only move earlier, and a ramp's next candidate is higher than its
// last only after that ramp commits. Every other ramp's candidate is the
// same or lower, because its step only halves, so its moved rows are a
// subset of the cached ones: the cache is reused as it is when neither the
// candidate nor the committed exits changed, and otherwise re-filtered
// against both. A column is scanned only in the first round and for the
// ramp just committed. The savings sum folds a per-row array of committed
// savings, with the moved rows' entries replaced; a row that exits nowhere
// holds 0, and adding +0 leaves the running sum bit for bit unchanged
// because that sum is never -0.
func GreedySearch(tab Table, accBudget, initStep, minStep float64) TuneResult {
	n := tab.cols
	thresholds := make([]float64, n)
	s := searchPool.Get().(*search)
	defer s.release()
	s.reset(tab, thresholds, initStep)
	steps := s.steps
	curLoss, curSav := tab.frac(float64(s.wrong)), tab.frac(s.saved)
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
			c := s.score(i, cand)
			evals++
			wrong := s.wrong + c.dWrong
			loss := tab.frac(float64(wrong))
			if c.moved == 0 || loss > accBudget {
				continue // no exit moved, or overstepped the accuracy boundary
			}
			saved := s.savedAfter(i)
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
			s.commit(bestRamp, bestWrong, bestSaved)
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

// searchPool holds greedy-search state between searches, so that a
// search allocates its result alone once its pool entry has grown to
// the table.
var searchPool = sync.Pool{New: func() any { return new(search) }}

// search is a greedy search's state: its steps, the committed exits and
// each ramp's last scored candidate.
type search struct {
	tab   Table
	steps []float64
	// col[r] is the column row r exits at (tab.cols when it exits
	// nowhere) and sav[r] that exit's saving (0 when none); wrong counts
	// the mismatched exits and saved sums sav in row order. commits
	// counts the changes to col.
	col     []int32
	sav     []float64
	wrong   int
	saved   float64
	commits int
	// cand[i] is ramp i's last scored candidate; movedRows(i) are the
	// rows it moves, in row order.
	cand []candidate
	rows []int32
}

// movedRows returns the rows ramp i's cached candidate moves.
func (s *search) movedRows(i int) []int32 {
	return s.rows[i*s.tab.n:][:s.cand[i].moved]
}

// candidate is one ramp's scored threshold raise.
type candidate struct {
	t       float64 // the candidate threshold
	commits int     // the committed exits it was scored against; -1 if none
	moved   int     // how many rows it moves
	dWrong  int     // the change it makes to the mismatch count
}

// reset prepares the search over tab from the given all-zero thresholds:
// it applies the exit rule to every row, and counts and sums the exits
// as EvalThresholds does.
func (s *search) reset(tab Table, thresholds []float64, initStep float64) {
	s.tab = tab
	s.steps = slices.Grow(s.steps[:0], tab.cols)[:tab.cols]
	s.col = slices.Grow(s.col[:0], tab.n)[:tab.n]
	s.sav = slices.Grow(s.sav[:0], tab.n)[:tab.n]
	s.cand = slices.Grow(s.cand[:0], tab.cols)[:tab.cols]
	s.rows = slices.Grow(s.rows[:0], tab.cols*tab.n)[:tab.cols*tab.n]
	for i := range s.steps {
		s.steps[i] = initStep
		s.cand[i] = candidate{commits: -1}
	}
	s.wrong, s.saved, s.commits = 0, 0, 0
	for r := range s.col {
		row := tab.row(r)
		e := exitCol(row, thresholds)
		s.col[r], s.sav[r] = int32(e), 0
		if e < tab.cols {
			if !row[e].Match {
				s.wrong++
			}
			s.sav[r] = tab.saving[e]
		}
		s.saved += s.sav[r]
	}
}

// release returns the search to searchPool without the table it held.
func (s *search) release() {
	s.tab = Table{}
	searchPool.Put(s)
}

// score returns ramp i's candidate at threshold t, scoring it only as
// far as the cache is stale. A candidate never scored, or raised past its
// last threshold by a commit, scans column i; a lower threshold or a
// changed set of committed exits re-filters the cached rows.
func (s *search) score(i int, t float64) candidate {
	c := &s.cand[i]
	switch {
	case c.commits < 0:
		s.scan(i, t)
	case c.t != t || c.commits != s.commits:
		s.refilter(i, t)
	}
	return *c
}

// scan scores raising column i's threshold to t over every row.
func (s *search) scan(i int, t float64) {
	tab := s.tab
	rows := s.rows[i*tab.n : (i+1)*tab.n]
	moved, dWrong := 0, 0
	for r, e := range s.col {
		if int(e) > i && tab.obs[r*tab.stride+i].Err < t {
			rows[moved] = int32(r)
			moved++
			dWrong += s.change(r, i)
		}
	}
	s.cand[i] = candidate{t: t, commits: s.commits, moved: moved, dWrong: dWrong}
}

// refilter scores raising column i's threshold to t over the rows its
// cached candidate moves, keeping those that still move: the rows that
// still exit after i and whose error at i is below t.
func (s *search) refilter(i int, t float64) {
	tab := s.tab
	rows := s.movedRows(i)
	moved, dWrong := 0, 0
	for _, r := range rows {
		if int(s.col[r]) > i && tab.obs[int(r)*tab.stride+i].Err < t {
			rows[moved] = r
			moved++
			dWrong += s.change(int(r), i)
		}
	}
	s.cand[i] = candidate{t: t, commits: s.commits, moved: moved, dWrong: dWrong}
}

// change is the change to the mismatch count when row r's exit moves to
// column i.
func (s *search) change(r, i int) int {
	tab := s.tab
	d := 0
	if !tab.obs[r*tab.stride+i].Match {
		d++
	}
	if e := int(s.col[r]); e < tab.cols && !tab.obs[r*tab.stride+e].Match {
		d--
	}
	return d
}

// savedAfter returns the savings of every row's exit after ramp i's
// candidate moves its rows, added in row order as EvalThresholds adds
// them.
func (s *search) savedAfter(i int) float64 {
	si := s.tab.saving[i]
	saved, next := 0.0, 0
	for _, r := range s.movedRows(i) {
		for _, v := range s.sav[next:r] {
			saved += v
		}
		saved += si
		next = int(r) + 1
	}
	for _, v := range s.sav[next:] {
		saved += v
	}
	return saved
}

// commit applies ramp i's candidate, whose mismatch count and savings
// the search computed: only the moved rows change. The ramp's next
// candidate lies above this one, so its cache is dropped.
func (s *search) commit(i, wrong int, saved float64) {
	si := s.tab.saving[i]
	for _, r := range s.movedRows(i) {
		s.col[r], s.sav[r] = int32(i), si
	}
	s.wrong, s.saved = wrong, saved
	s.commits++
	s.cand[i].commits = -1
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
