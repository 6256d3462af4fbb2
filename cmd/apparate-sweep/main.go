// Command apparate-sweep expands a scenario grid — the cartesian
// product of models, workloads, platforms, dispatch policies, replica
// counts, rate multipliers, ramp budgets, and accuracy constraints —
// and runs every scenario in parallel on a bounded worker pool, with
// deterministic per-scenario seeding: the same grid and seed produce
// byte-identical output at any worker count.
//
// Usage:
//
//	apparate-sweep -models resnet18,resnet50 -workloads video-0,video-1
//	apparate-sweep -workloads 'video-*' -platforms clockwork -rank p99
//	apparate-sweep -budgets 0.01,0.02,0.04 -out results.json
//	apparate-sweep -skip 'model=vgg*' -format csv -out results.csv
//	apparate-sweep -models resnet18 -workloads video-0 -obs-dir obs/   # per-scenario traces
//	apparate-sweep -cpuprofile cpu.pprof -memprofile mem.pprof
//	apparate-sweep -list            # print the expanded grid, don't run
//
// Axis flags take comma-separated values; empty axes expand to the full
// supported range (all compatible model/workload pairings, both
// platforms) or the paper's default parameter. -only and -skip take
// comma-separated glob patterns over axis tokens such as
// "model=resnet*" or "workload=video-3"; an unknown axis is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/sweep"
)

func splitOn(s, sep string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, sep)
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitList(s string) []string { return splitOn(s, ",") }

// splitSemiList splits on semicolons — for axes whose values themselves
// contain commas, like hetero speed specs.
func splitSemiList(s string) []string { return splitOn(s, ";") }

// splitPipeList splits on pipes — for the faults axis, whose specs use
// both commas (delay-distribution parameters) and semicolons (clause
// separators) internally.
func splitPipeList(s string) []string { return splitOn(s, "|") }

// splitFilters splits -only/-skip pattern lists: on pipes when one is
// present (so patterns over semicolon-valued tokens like multi-clause
// fault specs stay intact — append a trailing '|' to force it for a
// single pattern), else on semicolons when one is present (patterns
// over comma-valued tokens like hetero=1,0.5 — trailing ';' forces
// it), else on commas.
func splitFilters(s string) []string {
	if strings.Contains(s, "|") {
		return splitPipeList(s)
	}
	if strings.Contains(s, ";") {
		return splitSemiList(s)
	}
	return splitList(s)
}

func splitInts(s, flagName string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fatalf("-%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	return out
}

func splitFloats(s, flagName string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fatalf("-%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		models     = flag.String("models", "", "comma-separated model names (default: entire zoo)")
		workloads  = flag.String("workloads", "", "comma-separated workloads (default: all; video-0..7, amazon, imdb, cnn-dailymail, squad)")
		platforms  = flag.String("platforms", "", "comma-separated platforms (default: clockwork,tf-serve)")
		dispatches = flag.String("dispatch", "", "comma-separated dispatch policies: round-robin | least-loaded | join-shortest-queue (default: round-robin)")
		replicas   = flag.String("replicas", "", "comma-separated replica counts (default: 1)")
		rates      = flag.String("rates", "", "comma-separated arrival-rate multipliers (default: 1)")
		budgets    = flag.String("budgets", "", "comma-separated ramp budgets (default: 0.02)")
		accLosses  = flag.String("acc-losses", "", "comma-separated accuracy-loss constraints (default: 0.01)")
		rules      = flag.String("exit-rules", "", "comma-separated exit rules (default: entropy)")
		metricsMd  = flag.String("metrics", "", "comma-separated recorder modes: exact | sketch (default: exact)")
		schedules  = flag.String("rate-schedule", "", "comma-separated arrival-rate schedules, e.g. 'phases:10x1/10x4,sine:60/0.5/2' (default: native stationary arrivals)")
		autoscales = flag.String("autoscale", "", "comma-separated replica-autoscaler specs, e.g. '1..4,1..4/window=2000' (default: fixed replicas)")
		heteros    = flag.String("hetero", "", "semicolon-separated replica-speed specs, e.g. '1,0.5;1,1,0.25' (default: homogeneous clusters)")
		faultsAx   = flag.String("faults", "", "pipe-separated fault-injection specs, e.g. 'crash:r1@2000+500|mtbf:8000/1000;delaydist=exp:2;loss=0.001' (default: reliable clusters)")
		retries    = flag.String("retry", "", "comma-separated dispatcher retry/hedging specs, e.g. 'attempts=3,attempts=2/hedge=95' (default: dispatch once)")
		kvBlocks   = flag.String("kv-blocks", "", "comma-separated generative KV-block pool sizes (0 = unbounded)")
		blockToks  = flag.String("block-tokens", "", "comma-separated tokens-per-KV-block values (0 = 16)")
		prefixHits = flag.String("prefix-hit", "", "comma-separated generative prefix-cache hit ratios in [0,1] (default: 0)")
		prefillChs = flag.String("prefill-chunk", "", "comma-separated chunked-prefill thresholds in prompt tokens (0 = monolithic)")
		n          = flag.Int("n", 4000, "requests per classification scenario")
		genN       = flag.Int("gen-n", 40, "sequences per generative scenario")
		seed       = flag.Uint64("seed", 1, "base seed; per-scenario seeds derive from it")
		only       = flag.String("only", "", "comma-separated include globs over axis tokens (e.g. 'model=resnet*,workload=video-0'); use ';' separators when a pattern contains commas (e.g. 'hetero=1,0.5;'), '|' when it contains semicolons (e.g. 'faults=mtbf:*;loss=*|')")
		skip       = flag.String("skip", "", "comma-separated exclude globs over axis tokens; ';' separators when a pattern contains commas, '|' when it contains semicolons")
		workers    = flag.Int("workers", 0, "concurrent scenario executions (0 = GOMAXPROCS)")
		out        = flag.String("out", "", "write results to this file (format from -format)")
		format     = flag.String("format", "json", "output format for -out: json | csv")
		rank       = flag.String("rank", "p99", "table ranking metric: "+strings.Join(sweep.RankMetrics(), " | "))
		top        = flag.Int("top", 0, "show only the best N table rows (0 = all)")
		list       = flag.Bool("list", false, "print the expanded scenario grid and exit without running")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		obsDir     = flag.String("obs-dir", "", "write per-scenario observability files (trace_NNN.jsonl, timeline_NNN.csv) into this directory; enables both sinks unless -obs-trace/-obs-timeline narrows them")
		obsTrace   = flag.Bool("obs-trace", false, "with -obs-dir: write only the lifecycle traces")
		obsTimelin = flag.Bool("obs-timeline", false, "with -obs-dir: write only the gauge timelines")
		obsTick    = flag.Float64("obs-tick", 0, "timeline sampling period in virtual ms (0 = 100ms default)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-sweep) to this file")
	)
	flag.Parse()

	// -obs-dir alone turns on both sinks; the narrowing flags pick one.
	wantTrace, wantTimeline := *obsTrace, *obsTimelin
	if *obsDir != "" && !wantTrace && !wantTimeline {
		wantTrace, wantTimeline = true, true
	}
	if *obsDir == "" && (wantTrace || wantTimeline) {
		fatalf("-obs-trace/-obs-timeline need -obs-dir to write into")
	}

	grid := sweep.Grid{
		Models:        splitList(*models),
		Workloads:     splitList(*workloads),
		Platforms:     splitList(*platforms),
		Dispatches:    splitList(*dispatches),
		Replicas:      splitInts(*replicas, "replicas"),
		RateMults:     splitFloats(*rates, "rates"),
		Budgets:       splitFloats(*budgets, "budgets"),
		AccLosses:     splitFloats(*accLosses, "acc-losses"),
		ExitRules:     splitList(*rules),
		Metrics:       splitList(*metricsMd),
		RateSchedules: splitList(*schedules),
		Autoscales:    splitList(*autoscales),
		Heteros:       splitSemiList(*heteros),
		Faults:        splitPipeList(*faultsAx),
		Retries:       splitList(*retries),
		KVBlocks:      splitInts(*kvBlocks, "kv-blocks"),
		BlockTokens:   splitInts(*blockToks, "block-tokens"),
		PrefixHits:    splitFloats(*prefixHits, "prefix-hit"),
		PrefillChunks: splitInts(*prefillChs, "prefill-chunk"),
		N:             *n,
		GenN:          *genN,
		Seed:          *seed,
		Only:          splitFilters(*only),
		Skip:          splitFilters(*skip),
		Trace:         wantTrace,
		Timeline:      wantTimeline,
		ObsTickMS:     *obsTick,
	}
	// Reject bad output options before spending compute on the grid.
	if _, err := sweep.Rank(nil, *rank); err != nil {
		fatalf("%v", err)
	}
	if *out != "" && *format != "json" && *format != "csv" {
		fatalf("-format: want json or csv, got %q", *format)
	}

	scenarios, err := grid.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	if len(scenarios) == 0 {
		fatalf("grid expanded to zero scenarios (filters too strict?)")
	}
	if *list {
		for _, sc := range scenarios {
			fmt.Println(sc.Key())
		}
		fmt.Fprintf(os.Stderr, "%d scenarios\n", len(scenarios))
		return
	}

	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)

	opts := sweep.Options{Workers: *workers, ObsDir: *obsDir}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d scenarios, %d workers\n", len(scenarios), effectiveWorkers(*workers, len(scenarios)))
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d done", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	results := sweep.Run(scenarios, opts)
	stopProfiles()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: completed in %.1fs\n", time.Since(start).Seconds())
	}

	table, err := sweep.Table(results, *rank, *top)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(table)

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d scenarios failed\n", failed, len(results))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		if *format == "json" {
			err = sweep.WriteJSON(f, results)
		} else {
			err = sweep.WriteCSV(f, results)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %s (%s)\n", *out, *format)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and returns a stop function that
// also snapshots the heap; both paths are no-ops when unset. The stop
// runs right after the sweep so profiles capture scenario execution,
// not output formatting.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatalf("%v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
			f.Close()
		}
	}
}

func effectiveWorkers(workers, scenarios int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > scenarios {
		workers = scenarios
	}
	return workers
}
