package core

import (
	"strings"
	"testing"
)

func TestScenarioNormalizeHetero(t *testing.T) {
	// Single fixed replica: heterogeneity is meaningless and clears.
	sc := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Hetero: "1,0.5"}.Normalize()
	if sc.Hetero != "" {
		t.Fatalf("single-replica scenario kept hetero=%q", sc.Hetero)
	}
	// Cluster: kept and canonicalized.
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100,
		Replicas: 3, Hetero: "1.0, 0.50"}.Normalize()
	if sc.Hetero != "1,0.5" {
		t.Fatalf("hetero spec not canonicalized: %q", sc.Hetero)
	}
	// Autoscale keeps it too (the cluster can grow past one replica).
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100,
		Autoscale: "1..4", Hetero: "1,0.5"}.Normalize()
	if sc.Hetero != "1,0.5" {
		t.Fatalf("autoscaled scenario lost hetero: %q", sc.Hetero)
	}
	// Generative scenarios clear it like every cluster axis.
	sc = Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 10,
		Hetero: "1,0.5"}.Normalize()
	if sc.Hetero != "" {
		t.Fatalf("generative scenario kept hetero=%q", sc.Hetero)
	}
}

func TestScenarioIdentityHeteroOmittedWhenUnset(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2}
	if strings.Contains(base.Identity(), "hetero=") {
		t.Fatalf("unset hetero leaked into identity %q", base.Identity())
	}
	het := base
	het.Hetero = "1,0.5"
	if het.Identity() == base.Identity() {
		t.Fatal("hetero axis did not change the identity")
	}
	if !strings.Contains(het.Identity(), "hetero=1,0.5") {
		t.Fatalf("hetero token missing from %q", het.Identity())
	}
}

func TestScenarioValidateRejectsBadHetero(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2}
	for _, bad := range []string{"0", "-1,2", "fast", "1,,2", "nan", "1,inf"} {
		sc := base
		sc.Hetero = bad
		if err := sc.Validate(); err == nil {
			t.Fatalf("hetero=%q validated", bad)
		}
	}
	good := base
	good.Hetero = "2,1,0.5"
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hetero rejected: %v", err)
	}
}

// TestRunScenarioHeterogeneousCluster runs the knob end to end: a
// heterogeneous least-loaded cluster must serve every request and skew
// load toward the fast replica.
func TestRunScenarioHeterogeneousCluster(t *testing.T) {
	res, err := RunScenario(Scenario{
		Model: "bert-base", Workload: "amazon", N: 3000, Seed: 21,
		Replicas: 2, Dispatch: "least-loaded", Hetero: "2,0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3000 {
		t.Fatalf("served %d requests, want 3000", res.Requests)
	}
	if res.Scenario.Hetero != "2,0.5" {
		t.Fatalf("result lost the hetero axis: %+v", res.Scenario)
	}
}

// TestRunScenarioNothingDelivered runs a cluster so slow that the
// Apparate run delivers nothing: at half speed resnet50's worst case
// with ramps exceeds its SLO, so Clockwork drops every request. The run
// must report drop rate 1 and zero latency percentiles rather than
// summarize an empty distribution, and with nothing to compare, no
// latency win and no accuracy loss. TF-Serve, which queues instead of
// dropping, still delivers on the same cluster.
func TestRunScenarioNothingDelivered(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 300, Replicas: 2, Hetero: "0.5"}
	res, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Apparate; a != (RunSummary{DropRate: 1}) {
		t.Fatalf("apparate summary %+v, want drop rate 1 and nothing else", a)
	}
	if v := res.Vanilla; v.DropRate == 1 || v.P50ms == 0 {
		t.Fatalf("vanilla summary %+v: the baseline should deliver", v)
	}
	if res.P50Win != 0 || res.P95Win != 0 || res.P99Win != 0 || res.AccDelta != 0 {
		t.Fatalf("wins %v/%v/%v%%, accuracy loss %v: want all zero when apparate delivered nothing",
			res.P50Win, res.P95Win, res.P99Win, res.AccDelta)
	}
	tf := base
	tf.Platform = "tf-serve"
	res, err = RunScenario(tf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apparate.DropRate == 1 || res.Apparate.P50ms == 0 {
		t.Fatalf("tf-serve apparate summary %+v: it should deliver", res.Apparate)
	}
	if res.P95Win == 0 {
		t.Fatal("tf-serve scenario reports no p95 win: both runs delivered, so they compare")
	}
}
