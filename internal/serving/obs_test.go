package serving

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// terminalKinds are the events that finalize a request's fate exactly
// once: served, dropped by policy, or lost in transit.
func isTerminal(k obs.Kind) bool {
	return k == obs.KindComplete || k == obs.KindDrop || k == obs.KindLost
}

// TestTraceOutagePairsMatchUnavailMS pins the reconciliation contract:
// a faulty run's trace contains matching outage_start/outage_end pairs
// whose summed duration equals FaultStats.UnavailMS exactly — including
// a window still open at the end of the run, which finish clips.
func TestTraceOutagePairsMatchUnavailMS(t *testing.T) {
	m := model.ResNet50()
	tr := obs.NewTracer()
	// Both replicas down over [1000,1400]: a total outage of 400ms.
	cs := faultCluster(m, 2000, 2, 60, 71, 4, ClusterOptions{
		Dispatch: RoundRobin,
		Faults:   mustFaults(t, "crash:r0@1000+500;crash:r1@900+500"),
		Options:  Options{Trace: tr},
	})
	if cs.Faults == nil || cs.Faults.UnavailMS <= 0 {
		t.Fatalf("scenario did not produce an outage: %+v", cs.Faults)
	}
	open := math.NaN()
	sum := 0.0
	pairs := 0
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindOutageStart:
			if !math.IsNaN(open) {
				t.Fatalf("outage_start at %g with window already open at %g", e.TMS, open)
			}
			open = e.TMS
		case obs.KindOutageEnd:
			if math.IsNaN(open) {
				t.Fatalf("outage_end at %g without an open window", e.TMS)
			}
			if got := e.TMS - open; got != e.DurMS {
				t.Fatalf("outage_end dur %g != window span %g", e.DurMS, got)
			}
			sum += e.DurMS
			pairs++
			open = math.NaN()
		}
	}
	if !math.IsNaN(open) {
		t.Fatal("trace ends with an unmatched outage_start")
	}
	if pairs == 0 {
		t.Fatal("no outage pairs traced")
	}
	if sum != cs.Faults.UnavailMS {
		t.Fatalf("traced outage durations sum to %g, UnavailMS = %g", sum, cs.Faults.UnavailMS)
	}
}

// TestTraceCompletenessUnderFaults checks every arrival resolves exactly
// once in the trace, even through crashes, retries, and hedges.
func TestTraceCompletenessUnderFaults(t *testing.T) {
	m := model.ResNet50()
	tr := obs.NewTracer()
	cs := faultCluster(m, 3000, 3, 90, 77, 4, ClusterOptions{
		Dispatch: LeastLoaded,
		Faults:   mustFaults(t, "mtbf:800/200;loss=0.05"),
		Retry:    mustRetry(t, "attempts=3"),
		Options:  Options{Trace: tr},
	})
	arrivals := 0
	terminal := map[int]int{}
	for _, e := range tr.Events {
		if e.Kind == obs.KindArrive {
			arrivals++
		}
		if isTerminal(e.Kind) {
			terminal[e.Req]++
		}
	}
	if arrivals != 3000 {
		t.Fatalf("traced %d arrivals, want 3000", arrivals)
	}
	if len(terminal) != 3000 {
		t.Fatalf("%d requests reached a terminal event, want 3000", len(terminal))
	}
	for id, n := range terminal {
		if n != 1 {
			t.Fatalf("request %d has %d terminal events, want 1", id, n)
		}
	}
	if cs.Merged.Total != 3000 {
		t.Fatalf("Merged.Total = %d, want 3000", cs.Merged.Total)
	}
}

// TestTracingDoesNotChangeResults pins the zero-perturbation contract:
// attaching a tracer and a timeline must not change any simulation
// outcome, on reliable, faulty, and autoscaled runs alike.
func TestTracingDoesNotChangeResults(t *testing.T) {
	m := model.ResNet50()
	cases := []struct {
		name string
		opts func() ClusterOptions
	}{
		{"reliable", func() ClusterOptions { return ClusterOptions{Dispatch: LeastLoaded} }},
		{"faulty", func() ClusterOptions {
			return ClusterOptions{
				Dispatch: RoundRobin,
				Faults:   mustFaults(t, "mtbf:900/150;loss=0.03"),
				Retry:    mustRetry(t, "attempts=2/hedge=95"),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := faultCluster(m, 2500, 2, 75, 73, 4, tc.opts())
			traced := tc.opts()
			traced.Options.Trace = obs.NewTracer()
			traced.Options.Timeline = obs.NewTimeline(100, m.SLO())
			obsd := faultCluster(m, 2500, 2, 75, 73, 4, traced)
			if plain.Merged.Total != obsd.Merged.Total ||
				plain.Merged.Delivered != obsd.Merged.Delivered ||
				plain.Merged.Drops != obsd.Merged.Drops ||
				plain.Merged.Lost != obsd.Merged.Lost ||
				plain.Merged.SLOMisses != obsd.Merged.SLOMisses {
				t.Fatalf("tracing changed outcomes: %+v vs %+v", plain.Merged, obsd.Merged)
			}
			if plain.Merged.Lat.Percentile(99) != obsd.Merged.Lat.Percentile(99) {
				t.Fatal("tracing changed the latency distribution")
			}
			if (plain.Faults == nil) != (obsd.Faults == nil) {
				t.Fatal("tracing changed fault-mode activation")
			}
			if plain.Faults != nil && (plain.Faults.UnavailMS != obsd.Faults.UnavailMS ||
				plain.Faults.Crashes != obsd.Faults.Crashes ||
				plain.Faults.Lost != obsd.Faults.Lost) {
				t.Fatalf("tracing changed fault stats: %+v vs %+v", plain.Faults, obsd.Faults)
			}
		})
	}
}

// TestTraceDeterministicAcrossRuns pins byte-identity of the sinks: two
// identical runs must produce identical JSONL, Chrome, and timeline CSV
// bytes.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	m := model.ResNet50()
	run := func() (*obs.Tracer, *obs.Timeline) {
		tr := obs.NewTracer()
		tl := obs.NewTimeline(100, m.SLO())
		faultCluster(m, 2000, 2, 60, 79, 4, ClusterOptions{
			Dispatch: RoundRobin,
			Faults:   mustFaults(t, "crash:r0@500+300;loss=0.02"),
			Retry:    mustRetry(t, "attempts=2"),
			Options:  Options{Trace: tr, Timeline: tl},
		})
		return tr, tl
	}
	tr1, tl1 := run()
	tr2, tl2 := run()
	var j1, j2, c1, c2, t1, t2 bytes.Buffer
	for _, p := range []struct {
		tr *obs.Tracer
		tl *obs.Timeline
		j  *bytes.Buffer
		c  *bytes.Buffer
		t  *bytes.Buffer
	}{{tr1, tl1, &j1, &c1, &t1}, {tr2, tl2, &j2, &c2, &t2}} {
		if err := p.tr.WriteJSONL(p.j); err != nil {
			t.Fatal(err)
		}
		if err := p.tr.WriteChrome(p.c); err != nil {
			t.Fatal(err)
		}
		if err := p.tl.WriteCSV(p.t); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSONL trace differs between identical runs")
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("Chrome trace differs between identical runs")
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("timeline CSV differs between identical runs")
	}
	if tr1.Len() == 0 || len(tl1.Rows) == 0 {
		t.Fatalf("empty observability output: %d events, %d rows", tr1.Len(), len(tl1.Rows))
	}
}

// TestAutoscaleTraceRecordsScaleDecisions checks scale_up/scale_down
// events mirror the realized plan exactly.
func TestAutoscaleTraceRecordsScaleDecisions(t *testing.T) {
	m := model.ResNet50()
	tr := obs.NewTracer()
	s := workload.Video(0, 4000, 150, 83)
	cs := RunCluster(s, func(int) Handler { return &VanillaHandler{Model: m} }, ClusterOptions{
		Dispatch:  LeastLoaded,
		Autoscale: &autoscale.Config{Min: 1, Max: 4},
		Options:   Options{Platform: Clockwork, SLOms: m.SLO(), Trace: tr},
	})
	if cs.Scale == nil || len(cs.Scale.Steps) == 0 {
		t.Skip("scenario produced no scaling steps")
	}
	var steps []obs.Event
	for _, e := range tr.Events {
		if e.Kind == obs.KindScaleUp || e.Kind == obs.KindScaleDown {
			steps = append(steps, e)
		}
	}
	if len(steps) != len(cs.Scale.Steps) {
		t.Fatalf("traced %d scale events, plan has %d steps", len(steps), len(cs.Scale.Steps))
	}
	for i, st := range cs.Scale.Steps {
		if steps[i].TMS != st.AtMS || steps[i].Val != st.Replicas {
			t.Fatalf("scale event %d = (%g, %d), plan step = (%g, %d)",
				i, steps[i].TMS, steps[i].Val, st.AtMS, st.Replicas)
		}
	}
}

// TestSingleReplicaRunTrace checks Run's trace and timeline on both
// platforms at 3× the sustainable rate with small batches and a short
// queue, where requests queue, batch and drop: every request's events
// read arrive → dispatch → [enqueue] → complete|drop, with exactly one
// terminal event, and the timeline rows cover the run, count every
// completion, and see requests in flight.
func TestSingleReplicaRunTrace(t *testing.T) {
	m := model.BERTBase()
	s := workload.Amazon(1000, 3*trace.TargetQPS(m), 87)
	for _, p := range []Platform{Clockwork, TFServe} {
		t.Run(p.String(), func(t *testing.T) {
			tr := obs.NewTracer()
			tl := obs.NewTimeline(100, m.SLO())
			st := Run(s.Iter(), &VanillaHandler{Model: m}, Options{
				Platform: p, SLOms: m.SLO(), MaxBatch: 4, BatchTimeoutMS: 5, QueueCap: 8,
				Trace: tr, Timeline: tl,
			})
			if st.Total != 1000 {
				t.Fatalf("Total = %d, want 1000", st.Total)
			}
			if st.Drops == 0 {
				t.Fatal("no request dropped: the drop lifecycle went unchecked")
			}
			life := map[int][]obs.Kind{}
			for _, e := range tr.Events {
				if e.Req >= 0 {
					life[e.Req] = append(life[e.Req], e.Kind)
				}
			}
			if len(life) != 1000 {
				t.Fatalf("traced %d requests, want 1000", len(life))
			}
			for id, ks := range life {
				if !servedOnce(ks) {
					t.Fatalf("request %d traced %v, want arrive → dispatch → [enqueue] → complete|drop", id, ks)
				}
			}
			if len(tl.Rows) == 0 {
				t.Fatal("timeline emitted no rows")
			}
			if tl.Rows[0].TMS != 0 {
				t.Fatalf("first timeline row at %g, want 0", tl.Rows[0].TMS)
			}
			done, inflight := 0, false
			for _, r := range tl.Rows {
				done += r.WinDone
				inflight = inflight || r.Gauges.Inflight > 0
			}
			if done != st.Delivered {
				t.Fatalf("timeline windows saw %d completions, Stats.Delivered = %d", done, st.Delivered)
			}
			if !inflight {
				t.Fatal("no timeline row saw a request in flight")
			}
		})
	}
}

// servedOnce reports whether one request's trace events read
// arrive → dispatch → [enqueue] → complete|drop.
func servedOnce(ks []obs.Kind) bool {
	if len(ks) < 3 || ks[0] != obs.KindArrive || ks[1] != obs.KindDispatch {
		return false
	}
	if ks[2] == obs.KindEnqueue {
		ks = ks[1:]
	}
	return len(ks) == 3 && (ks[2] == obs.KindComplete || ks[2] == obs.KindDrop)
}
