// Command apparate-serve runs one serving scenario — a model, a
// workload, a platform, and Apparate's two parameters — printing the
// latency distribution, accuracy, and adaptation activity against the
// vanilla baseline. It is the single-scenario special case of the sweep
// engine: the same core.RunScenario entry point that apparate-sweep
// drives in parallel over a grid.
//
// Usage:
//
//	apparate-serve -model resnet50 -workload video-0 -n 12000
//	apparate-serve -model bert-base -workload amazon -platform tf-serve
//	apparate-serve -model bert-base -workload amazon -replicas 4 -dispatch least-loaded
//	apparate-serve -model t5-large -workload cnn-dailymail -n 500
//	apparate-serve -model resnet18 -workload video-0 -n 1000000 -metrics sketch
//	apparate-serve -model resnet50 -workload video-0 -trace run.jsonl -trace-chrome run.trace.json
//	apparate-serve -model resnet50 -workload video-0 -replicas 4 -timeline run.csv -obs-tick 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	var (
		modelName = flag.String("model", "resnet50", "model name (see internal/model zoo)")
		wlName    = flag.String("workload", "video-0", "workload: video-0..7, amazon, imdb, cnn-dailymail, squad")
		n         = flag.Int("n", 12000, "number of requests (sequences for generative)")
		platform  = flag.String("platform", "clockwork", "serving platform: clockwork | tf-serve")
		dispatch  = flag.String("dispatch", "round-robin", "cluster dispatch policy: round-robin | least-loaded | join-shortest-queue")
		replicas  = flag.Int("replicas", 1, "replica count; every width runs on the same cluster runtime (classification only)")
		rate      = flag.Float64("rate", 1, "arrival-rate multiplier over the workload's native rate (video: 30fps × rate)")
		budget    = flag.Float64("ramp-budget", 0.02, "ramp budget (fraction of worst-case latency)")
		accLoss   = flag.Float64("acc-loss", 0.01, "tolerable accuracy loss (a fraction in [0,1])")
		exitRule  = flag.String("exit-rule", "", "exit rule override: entropy | windowed-K | patience-P")
		genSlots  = flag.Int("gen-slots", 0, "generative continuous-batching slots (0 = engine default)")
		genFlush  = flag.Int("gen-flush", 0, "generative pending-token flush threshold (0 = engine default)")
		kvBlocks  = flag.Int("kv-blocks", 0, "generative KV-block pool size; admission blocks and the youngest running sequence preempts when exhausted (0 = unbounded)")
		blockTok  = flag.Int("block-tokens", 0, "tokens per KV block (0 = 16; meaningful with -kv-blocks)")
		prefixHit = flag.Float64("prefix-hit", 0, "generative prefix-cache hit probability in [0,1]; hits skip prompt prefill")
		prefillCh = flag.Int("prefill-chunk", 0, "chunked-prefill threshold in prompt tokens; longer prompts prefill in chunks interleaved with decode (0 = monolithic)")
		metricsMd = flag.String("metrics", "exact", "latency recorder: exact | sketch (sketch = O(1) memory for huge -n)")
		schedule  = flag.String("rate-schedule", "", "time-varying arrival schedule, e.g. phases:10x1/10x4 | sine:60/0.5/2 | square:30/0.5/4 (empty = native arrivals)")
		autoscl   = flag.String("autoscale", "", "replica autoscaler spec, e.g. 1..4 or 1..4/window=2000/cool=6000 (empty = fixed -replicas)")
		hetero    = flag.String("hetero", "", "replica speed factors cycled over replica indexes, e.g. 1,0.5 (empty = homogeneous cluster)")
		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. 'crash:r1@2000+500;mtbf:8000/1000;delaydist=lognormal:5,1;loss=0.001' (empty = reliable cluster)")
		retry     = flag.String("retry", "", "dispatcher retry/hedging spec, e.g. attempts=3 or attempts=2/hedge=95 (empty = dispatch once)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		tracePath = flag.String("trace", "", "write the Apparate run's request-lifecycle trace as JSONL to this file")
		chromeP   = flag.String("trace-chrome", "", "write the trace in Chrome trace-event format (open in Perfetto or chrome://tracing)")
		timelineP = flag.String("timeline", "", "write the sampled gauge timeline as CSV to this file")
		obsTick   = flag.Float64("obs-tick", 0, "timeline sampling period in virtual ms (0 = 100ms default)")
	)
	flag.Parse()

	sc := core.Scenario{
		Model:        *modelName,
		Workload:     *wlName,
		Platform:     *platform,
		Dispatch:     *dispatch,
		Replicas:     *replicas,
		N:            *n,
		Seed:         *seed,
		RateMult:     *rate,
		RampBudget:   *budget,
		AccLoss:      *accLoss,
		ExitRule:     *exitRule,
		GenSlots:     *genSlots,
		GenFlush:     *genFlush,
		KVBlocks:     *kvBlocks,
		BlockTokens:  *blockTok,
		PrefixHit:    *prefixHit,
		PrefillChunk: *prefillCh,
		Metrics:      *metricsMd,
		RateSchedule: *schedule,
		Autoscale:    *autoscl,
		Hetero:       *hetero,
		Faults:       *faultSpec,
		Retry:        *retry,
		Trace:        *tracePath != "" || *chromeP != "",
		Timeline:     *timelineP != "",
		ObsTickMS:    *obsTick,
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Every sink streams into a file opened before the run, so a bad
	// path fails before any work.
	traceF, chromeF, timelineF := create(*tracePath), create(*chromeP), create(*timelineP)
	res, od, err := core.RunScenarioTo(sc, traceF, chromeF, timelineF)
	for _, f := range []io.WriteCloser{traceF, chromeF, timelineF} {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printResult(res)
	reportObs(od, *tracePath, *chromeP, *timelineP)
}

// create opens path for a streamed sink; an empty path is no sink.
func create(path string) io.WriteCloser {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f
}

// reportObs names the observability files written, with their event
// and row counts.
func reportObs(od *core.ObsData, tracePath, chromePath, timelinePath string) {
	if tracePath != "" {
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events, JSONL)\n", tracePath, od.Trace.Len())
	}
	if chromePath != "" {
		fmt.Fprintf(os.Stderr, "trace: wrote %s (Chrome trace-event; open in Perfetto)\n", chromePath)
	}
	if timelinePath != "" {
		fmt.Fprintf(os.Stderr, "timeline: wrote %s (%d rows)\n", timelinePath, od.Timeline.Len())
	}
}

func printResult(res *core.Result) {
	sc := res.Scenario
	if res.Generative {
		fmt.Printf("model=%s workload=%s sequences=%d\n", sc.Model, sc.Workload, res.Requests)
	} else {
		hetero := ""
		if sc.Hetero != "" {
			hetero = " hetero=" + sc.Hetero
		}
		fmt.Printf("model=%s workload=%s n=%d platform=%s dispatch=%s replicas=%d%s slo=%.1fms\n",
			sc.Model, sc.Workload, res.Requests, sc.Platform, sc.Dispatch, sc.Replicas, hetero, res.SLOms)
	}

	label := ""
	if res.Generative {
		label = "TPT"
	}
	fmt.Printf("%-10s %10s %10s %10s\n", label, "vanilla", "apparate", "win")
	rows := []struct {
		name string
		v, a float64
	}{
		{"p25", res.Vanilla.P25ms, res.Apparate.P25ms},
		{"p50", res.Vanilla.P50ms, res.Apparate.P50ms},
		{"p95", res.Vanilla.P95ms, res.Apparate.P95ms},
		{"p99", res.Vanilla.P99ms, res.Apparate.P99ms},
	}
	for _, r := range rows {
		fmt.Printf("%-10s %9.2fms %9.2fms %9.1f%%\n", r.name, r.v, r.a, metrics.WinPercent(r.v, r.a))
	}

	if res.Generative {
		fmt.Printf("sequence score: vanilla %.4f, apparate %.4f\n", res.Vanilla.Accuracy, res.Apparate.Accuracy)
		fmt.Printf("throughput: vanilla %.1f tok/s, apparate %.1f tok/s\n", res.Vanilla.Throughput, res.Apparate.Throughput)
		if sc.KVBlocks > 0 || sc.PrefixHit > 0 || sc.PrefillChunk > 0 {
			fmt.Printf("kv: util %.1f%%, %d prefix hits, %d preemptions, mean queue %.1fms\n",
				res.KVUtil*100, res.PrefixHits, res.Preemptions, res.QueueMS)
		}
	} else {
		fmt.Printf("accuracy   %10.2f%% %9.2f%%   (loss %.3f%%, constraint %.1f%%)\n",
			res.Vanilla.Accuracy*100, res.Apparate.Accuracy*100, res.AccDelta*100, sc.AccLoss*100)
		fmt.Printf("throughput %8.1fqps %7.1fqps\n", res.Vanilla.Throughput, res.Apparate.Throughput)
		if res.Vanilla.DropRate == 1 || res.Apparate.DropRate == 1 {
			fmt.Printf("drop rate  %10.2f%% %9.2f%%   (a run that delivered nothing has no latency or accuracy to compare)\n",
				res.Vanilla.DropRate*100, res.Apparate.DropRate*100)
		}
	}
	fmt.Printf("adaptation: %d threshold tuning rounds, %d ramp adjustment rounds, %d active ramps\n",
		res.TuneRounds, res.AdjustRounds, res.ActiveRamps)
	if res.PeakReplicas > 0 {
		fmt.Printf("autoscale:  %d scale-ups, %d scale-downs, peak %d replicas (spec %s)\n",
			res.ScaleUps, res.ScaleDowns, res.PeakReplicas, sc.Autoscale)
	}
	// The availability block prints only for fault/retry scenarios, in
	// the same aligned vanilla/apparate columns as the latency table.
	if sc.Faults != "" || sc.Retry != "" {
		fmt.Printf("goodput    %8.1fqps %7.1fqps   (delivered within SLO)\n",
			res.Vanilla.Goodput, res.Apparate.Goodput)
		fmt.Printf("downtime   %9.0fms %8.0fms   (per-replica sum / zero-live)\n",
			res.DowntimeMS, res.UnavailMS)
		fmt.Printf("faults:     %d crashes, %d lost, %d retries, %d hedges\n",
			res.Crashes, res.Lost, res.Retries, res.Hedges)
	}
}
