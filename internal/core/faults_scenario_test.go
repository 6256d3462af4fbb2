package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

func TestScenarioNormalizeFaults(t *testing.T) {
	// Canonicalization: clause order never distinguishes fault models.
	sc := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2,
		Faults: "loss=0.01;crash:r1@2000+500"}.Normalize()
	if sc.Faults != "crash:r1@2000+500;loss=0.01" {
		t.Fatalf("faults spec not canonicalized: %q", sc.Faults)
	}
	// Retry shorthand canonicalizes too.
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2,
		Retry: "3"}.Normalize()
	if sc.Retry != "attempts=3" {
		t.Fatalf("retry spec not canonicalized: %q", sc.Retry)
	}
	// Generative scenarios clear both like every cluster axis.
	sc = Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 10,
		Faults: "loss=0.01", Retry: "attempts=3"}.Normalize()
	if sc.Faults != "" || sc.Retry != "" {
		t.Fatalf("generative scenario kept faults=%q retry=%q", sc.Faults, sc.Retry)
	}
	// Single-replica scenarios keep faults (a crash of the only replica
	// is exactly the total-outage study).
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100,
		Faults: "crash:r0@100+50"}.Normalize()
	if sc.Faults == "" {
		t.Fatal("single-replica scenario lost its fault spec")
	}
	// The run parses the canonical spec and ignores the error, so the
	// canonical spec must parse back or the run silently has no faults.
	// A crash at 10^6 ms renders as 1e+06, whose exponent sign must not
	// read as the AT+DOWN separator.
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2,
		Faults: "crash:r0@1000000+5000"}.Normalize()
	if fs, err := faults.Parse(sc.Faults); err != nil || len(fs.Crashes) != 1 {
		t.Fatalf("canonical spec %q does not parse back to one crash: %v", sc.Faults, err)
	}
}

// TestScenarioIdentityFaultsOmittedWhenUnset pins seed stability: the
// fault axes must not leak into pre-existing identities, so every
// fault-free scenario keeps the seed it had before the subsystem
// existed.
func TestScenarioIdentityFaultsOmittedWhenUnset(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2}
	id := base.Identity()
	if strings.Contains(id, "faults=") || strings.Contains(id, "retry=") {
		t.Fatalf("unset fault axes leaked into identity %q", id)
	}
	faulty := base
	faulty.Faults = "loss=0.01"
	if faulty.Identity() == id || !strings.Contains(faulty.Identity(), "faults=loss=0.01") {
		t.Fatalf("faults axis mishandled in identity %q", faulty.Identity())
	}
	retried := base
	retried.Retry = "attempts=3"
	if retried.Identity() == id || !strings.Contains(retried.Identity(), "retry=attempts=3") {
		t.Fatalf("retry axis mishandled in identity %q", retried.Identity())
	}
}

func TestScenarioValidateRejectsBadFaults(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2}
	for _, bad := range []string{"crash:r1", "loss=2", "mtbf:0/5", "delaydist=weibull:1", "nonsense"} {
		sc := base
		sc.Faults = bad
		if err := sc.Validate(); err == nil {
			t.Fatalf("faults=%q validated", bad)
		}
	}
	for _, bad := range []string{"attempts=0", "hedge=101", "retries=2"} {
		sc := base
		sc.Retry = bad
		if err := sc.Validate(); err == nil {
			t.Fatalf("retry=%q validated", bad)
		}
	}
	good := base
	good.Faults = "mtbf:8000/1000;delaydist=lognormal:5,1;loss=0.001"
	good.Retry = "attempts=2/hedge=95"
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fault scenario rejected: %v", err)
	}
}

// TestScenarioValidateRejectsUnrealizableReplica pins that a fault
// clause naming a replica the cluster can never materialize is an
// error, not a silently reliable run presented as a chaos result.
func TestScenarioValidateRejectsUnrealizableReplica(t *testing.T) {
	sc := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2,
		Faults: "crash:r5@2000+500"}
	if err := sc.Validate(); err == nil {
		t.Fatal("crash:r5 on a 2-replica cluster validated")
	}
	// The autoscaler's max bounds the realizable width, not Replicas.
	sc = Scenario{Model: "resnet50", Workload: "video-0", N: 100,
		Autoscale: "1..4", Faults: "crash:r3@2000+500"}
	if err := sc.Validate(); err != nil {
		t.Fatalf("crash:r3 under autoscale 1..4 rejected: %v", err)
	}
	sc.Faults = "mtbf:r4@8000/1000"
	if err := sc.Validate(); err == nil {
		t.Fatal("mtbf:r4 under autoscale 1..4 validated")
	}
}

// TestRunScenarioFaultyCluster runs the knobs end to end: a crashy,
// lossy cluster with retries must still complete, report availability
// metrics consistent with the injected schedule, and remain
// deterministic.
func TestRunScenarioFaultyCluster(t *testing.T) {
	sc := Scenario{
		Model: "resnet50", Workload: "video-0", N: 2000, Seed: 22,
		Replicas: 2, Dispatch: "least-loaded",
		Faults: "crash:r1@3000+1000;loss=0.01", Retry: "attempts=3",
	}
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != 2000 {
		t.Fatalf("served %d requests, want 2000", a.Requests)
	}
	if a.Crashes != 1 {
		t.Fatalf("realized %d crashes, want 1", a.Crashes)
	}
	if a.DowntimeMS != 1000 {
		t.Fatalf("downtime %g, want 1000", a.DowntimeMS)
	}
	if a.Retries == 0 {
		t.Fatal("lossy run with attempts=3 reported no retries")
	}
	if a.Apparate.Goodput <= 0 || a.Vanilla.Goodput <= 0 {
		t.Fatalf("goodput missing: vanilla %g apparate %g", a.Vanilla.Goodput, a.Apparate.Goodput)
	}
	b, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("faulty scenario not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunScenarioRetryOnlyOnReliableCluster pins that a retry policy on
// a reliable cluster is inert for everything but hedging: with no
// faults and no hedge, attempts=3 changes nothing versus the plain
// cluster run.
func TestRunScenarioRetryOnlyOnReliableCluster(t *testing.T) {
	base := Scenario{Model: "resnet50", Workload: "video-0", N: 1500, Seed: 23, Replicas: 2}
	plain, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	retried := base
	retried.Retry = "attempts=3"
	withRetry, err := RunScenario(retried)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Vanilla != withRetry.Vanilla || plain.Apparate != withRetry.Apparate {
		t.Fatalf("inert retry changed results:\n%+v\n%+v", plain, withRetry)
	}
}
