package controller_test

import (
	"testing"

	"repro/internal/controller"
)

// TestGreedySearchAllocBudget pins the greedy search's allocations: its
// thresholds, and its state only when the pool that keeps it between
// searches is empty or too small for the table. Scoring a candidate
// allocates nothing, so the budget is a constant however many candidates
// a search scores.
func TestGreedySearchAllocBudget(t *testing.T) {
	const budget = 8
	for _, st := range searchTables {
		tab := videoTable(st.rows)
		var res controller.TuneResult
		allocs := testing.AllocsPerRun(20, func() {
			res = controller.GreedySearch(tab, 0.006, 0.1, 0.01)
		})
		if allocs > budget {
			t.Errorf("%s: a search of %d candidates allocates %v, budget %d", st.name, res.Evals, allocs, budget)
		}
	}
}
