package core

import "testing"

// TestChaosScenarioAllocBudget pins one whole 8-replica cluster-chaos
// scenario, vanilla and Apparate runs included: bert-base on amazon
// under the benchmark's square-wave schedule, fault model and hedging
// retry, N=3000, exact metrics. The 16 replica handlers of the two runs
// share one built model, and each Apparate replica evaluates into its
// configuration's reused buffer, so the count follows replicas and
// tuning rounds, not requests. A model build per handler costs ~470
// allocations each, and one allocation per request of either run costs
// 6,000, so the budget catches both.
func TestChaosScenarioAllocBudget(t *testing.T) {
	sc := Scenario{
		Model: "bert-base", Workload: "amazon", N: 3000, Seed: 1,
		Platform: "clockwork", Replicas: 8, Dispatch: "least-loaded",
		RateMult: 1, RampBudget: 0.02, AccLoss: 0.01,
		RateSchedule: "square:30/0.5/2",
		Faults:       "mtbf:20000/1000;delaydist=exp:1;loss=0.001",
		Retry:        "attempts=3/hedge=95",
	}
	const budget = 8000 // measured: 4,289; 11,784 with a model build per handler
	avg := testing.AllocsPerRun(3, func() {
		if _, err := RunScenario(sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("8-replica chaos RunScenario: %.0f allocs", avg)
	if avg > budget {
		t.Fatalf("RunScenario allocated %.0f times, budget %d — a per-handler model build or a per-request allocation came back", avg, budget)
	}
}
