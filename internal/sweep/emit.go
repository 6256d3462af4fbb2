package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// RankMetrics lists the supported ranking keys for Rank and Table.
func RankMetrics() []string {
	return []string{"p99", "p95", "p50", "throughput", "acc-loss", "win"}
}

// rankKey returns the sort key for a result under the metric; lower is
// better for every metric (better-is-higher metrics negate).
func rankKey(r Result, metric string) (float64, error) {
	switch metric {
	case "p99":
		return r.Apparate.P99ms, nil
	case "p95":
		return r.Apparate.P95ms, nil
	case "p50":
		return r.Apparate.P50ms, nil
	case "throughput":
		return -r.Apparate.Throughput, nil
	case "acc-loss":
		return r.AccDelta, nil
	case "win":
		return -r.P95Win, nil
	}
	return 0, fmt.Errorf("sweep: unknown rank metric %q (want %s)", metric, strings.Join(RankMetrics(), " | "))
}

// measured reports whether both runs of a scenario have latencies. A run
// that delivered nothing, or generated no token, reports zero percentiles
// and no win or accuracy loss, which every metric but throughput would
// rank as the best.
func measured(r Result) bool { return r.Vanilla.P50ms > 0 && r.Apparate.P50ms > 0 }

// Rank returns a copy of the results sorted best-first under the metric.
// Scenarios in which a run has no latencies sort after every scenario
// whose runs both have, and failed scenarios sort last; ties break on
// scenario identity so the order is total and reproducible.
func Rank(results []Result, metric string) ([]Result, error) {
	if _, err := rankKey(Result{}, metric); err != nil {
		return nil, err
	}
	out := make([]Result, len(results))
	copy(out, results)
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Err != "") != (out[j].Err != "") {
			return out[i].Err == ""
		}
		if mi, mj := measured(out[i]), measured(out[j]); mi != mj {
			return mi
		}
		ki, _ := rankKey(out[i], metric)
		kj, _ := rankKey(out[j], metric)
		if ki != kj {
			return ki < kj
		}
		return out[i].Scenario.Identity() < out[j].Scenario.Identity()
	})
	return out, nil
}

// WriteJSON emits the results as indented JSON. Output is byte-stable:
// struct field order is fixed and all values are deterministic given the
// scenarios' seeds.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// csvHeader is the column set of WriteCSV.
var csvHeader = []string{
	"model", "workload", "platform", "dispatch", "replicas", "n", "seed",
	"rate_mult", "ramp_budget", "acc_loss", "exit_rule", "metrics",
	"rate_schedule", "autoscale", "hetero", "faults", "retry",
	"kv_blocks", "block_tokens", "prefix_hit", "prefill_chunk", "generative", "slo_ms",
	"van_p50_ms", "van_p95_ms", "van_p99_ms", "app_p50_ms", "app_p95_ms", "app_p99_ms",
	"p50_win_pct", "p95_win_pct", "p99_win_pct",
	"van_accuracy", "app_accuracy", "acc_delta",
	"van_throughput", "app_throughput", "app_drop_rate", "app_slo_miss_rate",
	"van_goodput", "app_goodput", "crashes", "lost", "retries", "hedges",
	"downtime_ms", "unavail_ms",
	"kv_util", "prefix_hits", "preemptions", "queue_ms",
	"tune_rounds", "adjust_rounds", "active_ramps",
	"scale_ups", "scale_downs", "peak_replicas", "error",
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV emits the results as CSV with a fixed header. Floats use the
// shortest exact representation, so the file is byte-stable too.
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range results {
		sc := r.Scenario
		rec := []string{
			sc.Model, sc.Workload, sc.Platform, sc.Dispatch,
			strconv.Itoa(sc.Replicas), strconv.Itoa(sc.N), strconv.FormatUint(sc.Seed, 10),
			ftoa(sc.RateMult), ftoa(sc.RampBudget), ftoa(sc.AccLoss), sc.ExitRule, sc.Metrics,
			sc.RateSchedule, sc.Autoscale, sc.Hetero, sc.Faults, sc.Retry,
			strconv.Itoa(sc.KVBlocks), strconv.Itoa(sc.BlockTokens),
			ftoa(sc.PrefixHit), strconv.Itoa(sc.PrefillChunk),
			strconv.FormatBool(r.Generative), ftoa(r.SLOms),
			ftoa(r.Vanilla.P50ms), ftoa(r.Vanilla.P95ms), ftoa(r.Vanilla.P99ms),
			ftoa(r.Apparate.P50ms), ftoa(r.Apparate.P95ms), ftoa(r.Apparate.P99ms),
			ftoa(r.P50Win), ftoa(r.P95Win), ftoa(r.P99Win),
			ftoa(r.Vanilla.Accuracy), ftoa(r.Apparate.Accuracy), ftoa(r.AccDelta),
			ftoa(r.Vanilla.Throughput), ftoa(r.Apparate.Throughput),
			ftoa(r.Apparate.DropRate), ftoa(r.Apparate.SLOMissRate),
			ftoa(r.Vanilla.Goodput), ftoa(r.Apparate.Goodput),
			strconv.Itoa(r.Crashes), strconv.Itoa(r.Lost),
			strconv.Itoa(r.Retries), strconv.Itoa(r.Hedges),
			ftoa(r.DowntimeMS), ftoa(r.UnavailMS),
			ftoa(r.KVUtil), strconv.Itoa(r.PrefixHits),
			strconv.Itoa(r.Preemptions), ftoa(r.QueueMS),
			strconv.Itoa(r.TuneRounds), strconv.Itoa(r.AdjustRounds), strconv.Itoa(r.ActiveRamps),
			strconv.Itoa(r.ScaleUps), strconv.Itoa(r.ScaleDowns), strconv.Itoa(r.PeakReplicas),
			r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders a compact terminal summary ranked best-first by the
// metric; top bounds the number of rows (0 = all). Latency columns are
// per-request for classification scenarios and per-token (TPT) for
// generative ones; throughput is qps or tokens/s respectively.
func Table(results []Result, metric string, top int) (string, error) {
	ranked, err := Rank(results, metric)
	if err != nil {
		return "", err
	}
	if top > 0 && top < len(ranked) {
		ranked = ranked[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-18s %-14s %-10s %-13s %4s %9s %9s %8s %8s %9s  %s\n",
		"rank", "model", "workload", "platform", "dispatch", "rep",
		"app-p50", "app-p99", "p95-win", "acc-Δ", "tput", "adaptation")
	for i, r := range ranked {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-4d %-18s %-14s %-10s %-13s %4d  ERROR: %s\n",
				i+1, r.Scenario.Model, r.Scenario.Workload, r.Scenario.Platform,
				r.Scenario.Dispatch, r.Scenario.Replicas, r.Err)
			continue
		}
		unit := "qps"
		if r.Generative {
			unit = "tok/s"
		}
		fmt.Fprintf(&b, "%-4d %-18s %-14s %-10s %-13s %4d %7.2fms %7.2fms %7.1f%% %7.3f%% %7.1f%s  %dt/%da/%dr\n",
			i+1, r.Scenario.Model, r.Scenario.Workload, r.Scenario.Platform,
			r.Scenario.Dispatch, r.Scenario.Replicas,
			r.Apparate.P50ms, r.Apparate.P99ms, r.P95Win, r.AccDelta*100,
			r.Apparate.Throughput, unit,
			r.TuneRounds, r.AdjustRounds, r.ActiveRamps)
	}
	return b.String(), nil
}
