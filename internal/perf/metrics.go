package perf

import "fmt"

// Metric describes one reported number.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression; Floor
	// is an absolute allowance, in the metric's unit, used when it is
	// larger. Both are 0 for "any worsening" and for per-layer metrics,
	// which have no bound.
	Bound, Floor float64
	// Layer marks a per-layer metric.
	Layer bool
	// Host marks a host time (or a rate per host second), which is scaled
	// to the reference machine speed (see RefCalib).
	Host bool
	// Least marks a metric whose noise only adds to it: the one-line
	// summary reports its smallest sample instead of the median.
	Least bool
	// Listed marks the metrics BENCHMARK.json names. Every workload
	// reports each listed metric, with a non-zero value for the
	// end-to-end ones and a measured one for every time per call.
	Listed bool
}

// Allowance is how far the metric may move in the worse direction from
// a parent median before it counts as regressed.
func (m Metric) Allowance(parentMedian float64) float64 {
	a := m.Bound * parentMedian
	if a < 0 {
		a = -a
	}
	return max(a, m.Floor)
}

// Worse reports by how much b is worse than a (negative when better).
func (m Metric) Worse(a, b float64) float64 {
	if m.Better == "higher" {
		return a - b
	}
	return b - a
}

func e2e(name, unit, better string, bound, floor float64, listed bool) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Bound: bound, Floor: floor, Listed: listed}
}

func layer(name, unit, better string, listed bool) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Layer: true, Listed: listed}
}

func host(m Metric) Metric {
	m.Host = true
	return m
}

func least(m Metric) Metric {
	m.Least = true
	return m
}

// scale converts a measured value to the reference machine speed, given
// the factor RefCalib ÷ this pass's calibration time.
func (m Metric) scale(v, factor float64) float64 {
	switch {
	case !m.Host:
		return v
	case m.Unit == "1/s":
		return v / factor
	}
	return v * factor
}

// Metrics lists every metric the benchmark reports, end-to-end first.
//
// The bounds are 25% because on the shared 2-CPU machine the baseline
// was recorded on, single passes vary by 12–15% (interquartile range over
// median) even after scaling to the reference speed, and the medians of
// whole 25 s runs still vary by 5–10% from run to run. A pass's peak RSS
// varies by up to 70% with when the collector runs relative to the
// allocation bursts of the two workers, which only adds to the footprint
// the pass needs; the summary line reports the smallest pass's peak.
//
// Five end-to-end metrics are not listed in BENCHMARK.json, whose runs
// vary the seed: failed_frac and acc_violation_frac read 0 on some
// workload; p50_win_pct is deterministic for a seed but moves by up to a
// tenth between seeds and reads the same on every seed on gen; static-ee
// has too few cells for a p90, and the median of its eight unequal cells
// moves with the two in the middle. The per-layer metrics listed there
// are the ones every workload measures: the layers all workloads pass
// through, shares of scenario time, and deterministic counts. Times per
// call of a layer only some workloads reach are reported by -layers
// alone.
func Metrics() []Metric {
	return []Metric{
		host(e2e("setup_s", "s", "lower", 0.25, 0.05, true)),
		host(e2e("wall_s", "s", "lower", 0.25, 0, true)),
		host(e2e("cpu_s", "s", "lower", 0.25, 0, true)),
		host(e2e("sim_req_per_s", "1/s", "higher", 0.25, 0, true)),
		host(e2e("scenario_ms_p50", "ms", "lower", 0.25, 0, false)),
		host(e2e("scenario_ms_p90", "ms", "lower", 0.25, 0, false)),
		least(e2e("peak_rss_mib", "MiB", "lower", 0.25, 8, true)),
		e2e("failed_frac", "frac", "lower", 0, 0, false),
		e2e("p50_win_pct", "%", "higher", 0, 1.0, false),
		e2e("acc_violation_frac", "frac", "lower", 0, 0, false),

		layer("sweep.busy_frac", "frac", "higher", true),
		host(layer("model.by_name_ms", "ms", "lower", true)),
		host(layer("core.setup_ms", "ms", "lower", true)),
		host(layer("workload.next_ns", "ns", "lower", true)),
		host(layer("workload.token_sample_ns", "ns", "lower", false)),
		host(layer("serving.vanilla_ns_per_req", "ns", "lower", false)),
		host(layer("serving.self_ns_per_req", "ns", "lower", false)),
		layer("serving.drop_frac", "frac", "lower", true),
		layer("serving.slo_miss_frac", "frac", "lower", true),
		layer("serving.retries_per_kreq", "1/kreq", "lower", true),
		layer("serving.hedges_per_kreq", "1/kreq", "lower", true),
		layer("serving.hedge_waste_frac", "frac", "lower", true),
		layer("serving.crashes", "count", "lower", true),
		layer("serving.scale_ups", "count", "lower", true),
		host(layer("ramp.evaluate_ns", "ns", "lower", false)),
		layer("ramp.exit_frac", "frac", "higher", true),
		layer("ramp.share", "frac", "lower", true),
		host(layer("controller.observe_ns", "ns", "lower", false)),
		host(layer("controller.tune_round_us", "us", "lower", false)),
		host(layer("controller.adjust_round_us", "us", "lower", false)),
		layer("controller.tune_rounds_per_kreq", "1/kreq", "lower", true),
		layer("controller.adjust_rounds_per_kreq", "1/kreq", "lower", true),
		layer("controller.share", "frac", "lower", true),
		host(layer("baselines.tune_shared_ms", "ms", "lower", false)),
		host(layer("baselines.tune_per_ramp_ms", "ms", "lower", false)),
		host(layer("baselines.tune_oracle_ms", "ms", "lower", false)),
		host(layer("baselines.serve_ns", "ns", "lower", false)),
		layer("baselines.tune_share", "frac", "lower", true),
		host(layer("genserve.classic_ns_per_token", "ns", "lower", false)),
		host(layer("genserve.kv_ns_per_token", "ns", "lower", false)),
		host(layer("genserve.decide_ns", "ns", "lower", false)),
		host(layer("genserve.self_ns_per_token", "ns", "lower", false)),
		layer("genserve.decide_share", "frac", "lower", true),
		layer("genserve.kv_util", "frac", "higher", true),
		layer("genserve.preempt_per_kseq", "1/kseq", "lower", true),
		layer("genserve.prefix_hit_frac", "frac", "higher", true),
		layer("genserve.queue_ms", "sim_ms", "lower", true),
		host(layer("metrics.summary_us", "us", "lower", true)),
		layer("obs.events_per_req", "count", "lower", true),
		layer("obs.retained_mib", "MiB", "lower", true),
		host(layer("obs.write_ms", "ms", "lower", false)),
		layer("obs.bytes_per_req", "B", "lower", true),
		layer("obs.overhead_frac", "frac", "lower", true),
		layer("go.alloc_mib", "MiB", "lower", true),
		layer("go.gc_cycles", "count", "lower", true),
		layer("bench.layers_overhead_frac", "frac", "lower", true),
		layer("bench.calib_ms", "ms", "lower", false),
	}
}

// MetricByName returns the named metric.
func MetricByName(name string) (Metric, error) {
	for _, m := range Metrics() {
		if m.Name == name {
			return m, nil
		}
	}
	return Metric{}, fmt.Errorf("perf: unknown metric %q", name)
}
