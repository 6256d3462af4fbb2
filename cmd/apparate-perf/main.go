// Command apparate-perf is the simulator's benchmark. It runs five named
// workloads through the entry points users call, each pass in a fresh
// child process, and reports end-to-end metrics as medians and
// quartiles over interleaved rounds, after checking every output. A
// layers run composes the same scenarios from the layers' public
// functions with spans at each boundary and reports per-layer metrics.
// See internal/perf for the workloads, the metrics and the protocol.
//
// The command is a module of its own, built against the repository's
// module; run.sh builds it under .bench_build/ and runs it from the
// repository root, where it writes its output files:
//
//	bash cmd/apparate-perf/run.sh                      # a set: 5 rounds of every workload
//	bash cmd/apparate-perf/run.sh -workload gen -rounds 3 -out set.json
//	bash cmd/apparate-perf/run.sh -layers -rounds 1    # per-layer metrics, writes layers.json
//	bash cmd/apparate-perf/run.sh -compare old.json new.json
//	bash cmd/apparate-perf/run.sh -workload gen -seed 3 -seconds 25 -trace 0
//
// With one workload the last line of standard output is a JSON summary:
// {"correct", "attempted", "failed", "metrics"} with the median of every
// metric BENCHMARK.json lists (its per-layer metrics with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/perf"
)

func main() {
	workloads := flag.String("workload", "", "comma-separated workloads (default: all of "+strings.Join(names(), ", ")+")")
	seed := flag.Uint64("seed", 1, "seed of the generated scenarios and static-ee streams")
	rounds := flag.Int("rounds", 5, "rounds in the set; each runs every workload once, order rotating")
	seconds := flag.Float64("seconds", 0, "instead of -rounds, run rounds while the next is expected to end within this many seconds")
	layers := flag.Bool("layers", false, "after each end-to-end pass run a layers pass; report per-layer metrics and write -layers-out")
	traceFlag := flag.Int("trace", 0, "1 is -layers")
	layersOut := flag.String("layers-out", "layers.json", "where -layers writes spans and per-layer metrics")
	smoke := flag.Bool("smoke", false, fmt.Sprintf("divide every request count by %d", perf.SmokeScale))
	out := flag.String("out", "", "write the set (every sample and its quartiles) to this JSON file")
	compare := flag.Bool("compare", false, "compare two set files: apparate-perf -compare old.json new.json")
	child := flag.String(perf.ChildFlag, "", "run one pass (e2e | layers) of -workload and report it on standard output")
	flag.Parse()

	if *child != "" {
		if err := perf.ChildMain(*child, *workloads, *seed, *smoke, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: apparate-perf -compare old.json new.json"))
		}
		old, err := perf.ReadSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := perf.ReadSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		perf.Compare(os.Stdout, old, cur)
		return
	}

	o := perf.Options{Seed: *seed, Smoke: *smoke, Rounds: *rounds, Seconds: *seconds, Layers: *layers || *traceFlag == 1}
	sel := names()
	if *workloads != "" {
		sel = strings.Split(*workloads, ",")
	}
	for _, name := range sel {
		w, err := perf.WorkloadByName(name)
		if err != nil {
			fatal(err)
		}
		o.Workloads = append(o.Workloads, w)
	}
	set, err := perf.RunSet(o)
	if err != nil {
		fatal(err)
	}
	perf.WriteTable(os.Stdout, set)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fatal(err)
		}
	}
	if o.Layers {
		if err := writeJSON(*layersOut, perf.LayersFile(set)); err != nil {
			fatal(err)
		}
	}
	if len(set.Workloads) == 1 {
		line, err := perf.SummaryLine(set, o.Layers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !set.Correct() {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, w := range perf.Workloads() {
		out = append(out, w.Name)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apparate-perf:", err)
	os.Exit(1)
}
