package genserve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/workload"
)

// refApparateGen is ApparateGen as it was before observation points,
// the ring window and the one-pass tune: every token re-derives the
// ramp's point with At before observing it, the feedback window
// slides by re-slicing an append-grown slice, and tune rescans the whole
// window once per grid threshold. It is kept as the reference the
// policy must reproduce token for token.
type refApparateGen struct {
	Model     *model.Model
	Profile   exitsim.Profile
	Sites     []model.RampSite
	SiteIdx   int
	Threshold float64
	Overhead  float64
	AccBudget float64

	window      []tokenObs
	windowCap   int
	adjustEvery int
	sinceAdjust int
	divergence  bool

	candidates []int
	ewma       []float64
	visited    []bool
	cur        int
	probeClock int

	TuneRounds int
	MoveRounds int
}

func newRefApparateGen(m *model.Model, p exitsim.Profile, accBudget float64) *refApparateGen {
	sites := m.FeasibleRamps()
	quantiles := []float64{0.02, 0.08, 0.16, 0.25, 0.38, 0.5, 0.68, 0.85}
	cands := make([]int, 0, len(quantiles))
	seen := map[int]bool{}
	for _, q := range quantiles {
		idx := int(q * float64(len(sites)-1))
		if !seen[idx] {
			seen[idx] = true
			cands = append(cands, idx)
		}
	}
	a := &refApparateGen{
		Model: m, Profile: p, Sites: sites,
		Overhead:    ramp.StyleDefault.OverheadFrac,
		AccBudget:   TokenBudget(accBudget),
		windowCap:   192,
		adjustEvery: 192,
		candidates:  cands,
		ewma:        make([]float64, len(cands)),
		visited:     make([]bool, len(cands)),
	}
	a.cur = len(cands) / 2
	a.SiteIdx = cands[a.cur]
	return a
}

func (a *refApparateGen) depth() float64 { return a.Sites[a.SiteIdx].Frac }

func (a *refApparateGen) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	e, match := a.Profile.Observe(s, a.Profile.At(a.depth(), a.Sites[a.SiteIdx].Quality))
	exit := e < a.Threshold
	if !a.divergence {
		a.window = append(a.window, tokenObs{err: e, match: match})
		if len(a.window) > a.windowCap {
			a.window = a.window[len(a.window)-a.windowCap:]
		}
		if exit && !match {
			a.divergence = true
		}
	}
	a.sinceAdjust++
	if a.sinceAdjust >= a.adjustEvery {
		a.sinceAdjust = 0
		a.adapt()
	}
	return exit, a.depth(), a.Overhead, !exit || match
}

func (a *refApparateGen) ObserveFlush() { a.divergence = false }

// refTune is the original threshold search: for each grid threshold in
// turn, count the window's exiting mismatches anew, and stop at
// the first threshold over budget. ok is false on an empty window, which
// leaves the threshold alone.
func refTune(window []tokenObs, budget float64) (best float64, ok bool) {
	n := float64(len(window))
	if n == 0 {
		return 0, false
	}
	for ti := 0; ti <= 100; ti++ {
		t := float64(ti) / 100
		wrong := 0
		for _, o := range window {
			if o.err < t && !o.match {
				wrong++
			}
		}
		if float64(wrong)/n <= budget {
			best = t
		} else {
			break
		}
	}
	return best, true
}

func (a *refApparateGen) adapt() {
	if best, ok := refTune(a.window, a.AccBudget); ok {
		a.Threshold = best
		a.TuneRounds++
	}
	exits := 0
	for _, o := range a.window {
		if o.err < a.Threshold {
			exits++
		}
	}
	n := len(a.window)
	if n == 0 {
		return
	}
	base := a.Model.BaseLatencyMS
	utility := (float64(exits)*(1-a.depth())*base - float64(n-exits)*a.Overhead*base) / float64(n)
	if a.visited[a.cur] {
		a.ewma[a.cur] = 0.6*a.ewma[a.cur] + 0.4*utility
	} else {
		a.ewma[a.cur] = utility
		a.visited[a.cur] = true
	}
	next := a.cur
	if unvisited := a.firstUnvisited(); unvisited >= 0 {
		next = unvisited
	} else {
		best := 0
		for i := range a.ewma {
			if a.ewma[i] > a.ewma[best] {
				best = i
			}
		}
		next = best
		a.probeClock++
		if a.probeClock%8 == 0 {
			if (a.probeClock/8)%2 == 0 && best > 0 {
				next = best - 1
			} else if best < len(a.candidates)-1 {
				next = best + 1
			}
		}
	}
	if next != a.cur {
		a.cur = next
		a.SiteIdx = a.candidates[next]
		a.MoveRounds++
		a.window = a.window[:0]
	}
}

func (a *refApparateGen) firstUnvisited() int {
	for i, v := range a.visited {
		if !v {
			return i
		}
	}
	return -1
}

// lockstep serves each token through ApparateGen and the reference side
// by side, failing on the first token where their decisions or
// adaptation state part.
type lockstep struct {
	t      *testing.T
	got    *ApparateGen
	want   *refApparateGen
	tokens int
}

func (l *lockstep) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	l.tokens++
	ge, gd, gh, gm := l.got.Decide(s)
	we, wd, wh, wm := l.want.Decide(s)
	if ge != we || gd != wd || gh != wh || gm != wm {
		l.t.Fatalf("token %d: Decide = (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
			l.tokens, ge, gd, gh, gm, we, wd, wh, wm)
	}
	l.checkState()
	return ge, gd, gh, gm
}

func (l *lockstep) ObserveFlush() {
	l.got.ObserveFlush()
	l.want.ObserveFlush()
}

func (l *lockstep) checkState() {
	g, w := l.got, l.want
	if g.Threshold != w.Threshold || g.SiteIdx != w.SiteIdx ||
		g.TuneRounds != w.TuneRounds || g.MoveRounds != w.MoveRounds {
		l.t.Fatalf("token %d: (Threshold, SiteIdx, TuneRounds, MoveRounds) = (%v, %d, %d, %d), reference (%v, %d, %d, %d)",
			l.tokens, g.Threshold, g.SiteIdx, g.TuneRounds, g.MoveRounds,
			w.Threshold, w.SiteIdx, w.TuneRounds, w.MoveRounds)
	}
}

// TestApparateGenMatchesReference serves whole cnn-dailymail and squad
// streams on t5-large and llama2-7b at two accuracy budgets through
// ApparateGen and the reference in lockstep: every token's decision and
// every adaptation round must agree exactly.
func TestApparateGenMatchesReference(t *testing.T) {
	for _, m := range []*model.Model{model.T5Large(), model.Llama27B()} {
		for _, wl := range workload.GenNames() {
			for _, acc := range []float64{0.01, 0.05} {
				stream, err := workload.GenByName(wl, 500, 3, 18)
				if err != nil {
					t.Fatal(err)
				}
				prof := exitsim.ProfileFor(m, stream.Kind)
				l := &lockstep{
					t:    t,
					got:  NewApparateGen(m, prof, acc),
					want: newRefApparateGen(m, prof, acc),
				}
				NewEngine(m, prof).Run(stream, l)
				if l.want.TuneRounds < 10 || l.want.MoveRounds < 2 {
					t.Fatalf("%s/%s/%v: only %d tune and %d move rounds over %d tokens",
						m.Name, wl, acc, l.want.TuneRounds, l.want.MoveRounds, l.tokens)
				}
			}
		}
	}
}

// tuneWindow fills an empty feedback window with obs, as Decide would
// record them, and runs one tune round.
func tuneWindow(obs []tokenObs, budget float64) *ApparateGen {
	a := &ApparateGen{
		window:    make([]tokenObs, feedbackWindow),
		AccBudget: budget,
		Threshold: -1, // a sentinel an empty window must leave in place
	}
	for _, o := range obs {
		a.record(o)
	}
	a.tune()
	return a
}

// TestTuneMatchesReference pins the one-pass tune against the rescan on
// windows built to sit on the grid's edges: errors exactly on k/100 and
// one ulp either side, errors of 0 and 1, all-match and all-mismatch
// windows, budgets of 0 and 1, and an empty window. Windows longer than
// the ring keep only their last slots, as in the reference.
func TestTuneMatchesReference(t *testing.T) {
	var edges []float64
	for k := 0; k <= 100; k++ {
		g := float64(k) / 100
		edges = append(edges, math.Nextafter(g, -1), g, math.Nextafter(g, 2))
	}
	type window struct {
		name string
		obs  []tokenObs
	}
	windows := []window{
		{"empty", nil},
		{"zeros", []tokenObs{{err: 0}, {err: 0, match: true}, {err: 0}}},
		{"ones", []tokenObs{{err: 1}, {err: 1, match: true}, {err: 1}}},
	}
	var allMiss, allMatch, mixed []tokenObs
	for i, e := range edges {
		allMiss = append(allMiss, tokenObs{err: e})
		allMatch = append(allMatch, tokenObs{err: e, match: true})
		mixed = append(mixed, tokenObs{err: e, match: i%3 != 0})
		// A lone mismatch exceeds every budget below 1 as soon as a
		// threshold exits it, so the tuned threshold names its bucket.
		windows = append(windows, window{fmt.Sprintf("lone %v", e), []tokenObs{{err: e}}})
		// Two mismatches among 100 tokens: budgets around 0.02 decide
		// whether the running count may pass their bucket.
		pair := make([]tokenObs, 100)
		for j := range pair {
			pair[j] = tokenObs{err: 0.5, match: true}
		}
		pair[37], pair[61] = tokenObs{err: e}, tokenObs{err: e}
		windows = append(windows, window{fmt.Sprintf("pair %v", e), pair})
	}
	windows = append(windows,
		window{"all-mismatch", allMiss}, window{"all-match", allMatch}, window{"mixed", mixed})
	for _, w := range windows {
		for _, b := range []float64{0, 0.01, 0.015, 0.02, 0.075, 0.5, 1} {
			a := tuneWindow(w.obs, b)
			kept := w.obs[max(0, len(w.obs)-feedbackWindow):]
			want, ok := refTune(kept, b)
			switch {
			case !ok && (a.Threshold != -1 || a.TuneRounds != 0):
				t.Fatalf("%s, budget %v: empty window tuned to %v in %d rounds", w.name, b, a.Threshold, a.TuneRounds)
			case ok && (a.Threshold != want || a.TuneRounds != 1):
				t.Fatalf("%s, budget %v: threshold %v in %d rounds, reference %v", w.name, b, a.Threshold, a.TuneRounds, want)
			}
		}
	}
}
