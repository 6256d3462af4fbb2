package serving

import (
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestRunFiresOnlyEventsThatWork pins the engine events a run fires.
// BenchmarkRun's scenario (resnet18 on video-0, 8,000 frames at 30 fps)
// is light, so every request finds the replica idle and leaves before
// the next one arrives: on Clockwork its arrival is its only event (the
// policy is evaluated at once and the batch's completion wake is never
// needed), and on TF-Serve each request but the last also waits out the
// batch timeout on one wake. A run that fired a wake at a request's own
// arrival instant, and a completion wake on an empty queue, fired
// 24,000 and 31,999. The fault-mode runs pin a width-4 cluster under
// churn and loss with retries and hedging, with and without transit
// delay: delivered copies are evaluated at once, and copies sent
// straight to a replica are not. With those wakes they fired 20,151 and
// 16,087.
func TestRunFiresOnlyEventsThatWork(t *testing.T) {
	m := model.ResNet18()
	s := workload.Video(0, 8000, 30, 1)
	for _, tc := range []struct {
		platform Platform
		want     int
	}{{Clockwork, 8000}, {TFServe, 15999}} {
		for _, hc := range []struct {
			name string
			h    Handler
		}{
			{"vanilla", &VanillaHandler{Model: m}},
			{"apparate", NewApparate(m, exitsim.ProfileFor(m, exitsim.KindVideo), 0.02, controller.Config{})},
		} {
			t.Run(fmt.Sprintf("%s/%s", tc.platform, hc.name), func(t *testing.T) {
				cs := RunCluster(s, func(int) Handler { return hc.h },
					ClusterOptions{Options: Options{Platform: tc.platform, SLOms: m.SLO()}, Replicas: 1})
				if cs.Fired != tc.want {
					t.Fatalf("fired %d events for %d requests, want %d", cs.Fired, cs.Merged.Total, tc.want)
				}
			})
		}
	}

	m = model.ResNet50()
	retry, err := faults.ParseRetry("attempts=3/hedge=95")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		want int
	}{
		{"mtbf:3000/400;delaydist=exp:2;loss=0.02", 12362},
		{"mtbf:3000/400;loss=0.02", 12183},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			cs := RunCluster(workload.Video(1, 4000, 90, 93), func(int) Handler { return &VanillaHandler{Model: m} },
				ClusterOptions{
					Options:   Options{Platform: Clockwork, SLOms: m.SLO()},
					Replicas:  4,
					Dispatch:  LeastLoaded,
					Faults:    mustFaults(t, tc.spec),
					Retry:     retry,
					FaultSeed: 11,
				})
			if f := cs.Faults; f.Crashes == 0 || f.Hedged == 0 || f.Retried == 0 {
				t.Fatalf("the run exercised too little of the fault runtime: %+v", *f)
			}
			if cs.Fired != tc.want {
				t.Fatalf("fired %d events for %d requests, want %d", cs.Fired, cs.Merged.Total, tc.want)
			}
		})
	}
}

// TestSameInstantArrivalsShareABatch checks the condition under which a
// lone request is served without a wake: only when no other arrival is
// due at its instant. Requests arrive in bursts of three at one instant,
// far enough apart that the replica is idle at each burst, so every
// burst must form one batch of three, as refRun, which admits every
// arrival by now before it forms a batch, forms it. Serving the first
// request of a burst at once would form batches of one and two.
func TestSameInstantArrivalsShareABatch(t *testing.T) {
	m := model.ResNet50()
	frames := workload.Video(1, 300, 30, 5).Materialize()
	for i := range frames {
		frames[i].ArrivalMS = float64(i/3) * 100
	}
	s := workload.FromSlice("bursts", exitsim.KindVideo, frames)
	for _, platform := range []Platform{Clockwork, TFServe} {
		t.Run(platform.String(), func(t *testing.T) {
			opts := Options{Platform: platform, SLOms: m.SLO()}
			ref := refRun(s.Iter(), &VanillaHandler{Model: m}, opts)
			got := Run(s.Iter(), &VanillaHandler{Model: m}, opts)
			if ref.AvgBatch != 3 {
				t.Fatalf("refRun formed batches of %g on average, want 3", ref.AvgBatch)
			}
			if want, fp := statsFingerprint(ref), statsFingerprint(got); fp != want {
				t.Fatalf("Run diverges from refRun:\n ref: %s\n got: %s", want, fp)
			}
		})
	}
}
