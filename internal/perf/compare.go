package perf

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Verdicts of a comparison.
const (
	Regressed  = "regressed"
	Improved   = "improved"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// improvedShare is the share of pairs the change must win to count as
// improved.
const improvedShare = 0.9

// Verdict compares one metric's samples from the parent (old) and the
// change (new), pairing them in run order.
//
//   - regressed: new's median is worse than old's by more than the
//     metric's bound;
//   - improved: new wins at least 9/10 of the pairs (ties count for
//     neither) and the medians differ by more than old's quartile
//     distance;
//   - unresolved: the quartile distance of either side is wider than
//     the bound, unless every new sample is better than every old one;
//   - unchanged otherwise.
func Verdict(m Metric, old, new []float64) string {
	o1, om, o3 := Quartiles(old)
	n1, nm, n3 := Quartiles(new)
	allow := m.Allowance(om)
	if m.Worse(om, nm) > allow {
		return Regressed
	}
	pairs, wins := min(len(old), len(new)), 0
	for i := 0; i < pairs; i++ {
		if m.Worse(old[i], new[i]) < 0 {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= improvedShare*float64(pairs) && m.Worse(om, nm) < 0 && math.Abs(nm-om) > o3-o1 {
		return Improved
	}
	if o3-o1 > allow || n3-n1 > allow {
		if !allBetter(m, old, new) {
			return Unresolved
		}
	}
	return Unchanged
}

// allBetter reports whether every new sample is better than every old one.
func allBetter(m Metric, old, new []float64) bool {
	for _, o := range old {
		for _, n := range new {
			if m.Worse(o, n) >= 0 {
				return false
			}
		}
	}
	return len(old) > 0 && len(new) > 0
}

// ReadSet loads a set file written with -out.
func ReadSet(path string) (*Set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &s, nil
}

// Compare writes one row per workload and end-to-end metric that both
// sets measured: each side's median and quartiles, the ratio of the
// medians and the verdict.
func Compare(w io.Writer, old, new *Set) {
	fmt.Fprintf(w, "old: %s %s nproc=%d seed=%d rounds=%d\n", old.Commit, old.Go, old.NProc, old.Seed, old.Rounds)
	fmt.Fprintf(w, "new: %s %s nproc=%d seed=%d rounds=%d\n", new.Commit, new.Go, new.NProc, new.Seed, new.Rounds)
	fmt.Fprintf(w, "%-21s %-19s %-7s %24s %24s %7s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "ratio", "verdict")
	for _, ow := range old.Workloads {
		nw := new.workload(ow.Name)
		if nw == nil {
			continue
		}
		for _, m := range Metrics() {
			if m.Layer {
				continue
			}
			o, n := ow.Metrics[m.Name], nw.Metrics[m.Name]
			if o == nil || n == nil {
				continue
			}
			fmt.Fprintf(w, "%-21s %-19s %-7s %24s %24s %7.3f  %s\n", ow.Name, m.Name, m.Unit,
				quartileText(o), quartileText(n), ratio(n.Median, o.Median), Verdict(m, o.Samples, n.Samples))
		}
	}
}

func (s *Set) workload(name string) *WorkloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func quartileText(s *Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

// WriteTable prints every metric of every workload: median, quartiles
// and sample count, then the failures and the result digest.
func WriteTable(w io.Writer, s *Set) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  seed %d  rounds %d  workers %d\n", s.Commit, s.Go, s.NProc, s.Seed, s.Rounds, Workers)
	for _, wr := range s.Workloads {
		fmt.Fprintf(w, "\n%s: %d scenarios, %d attempted, %d failed, result_digest %s\n", wr.Name, wr.Units, wr.Attempted, wr.Failed, wr.Digest)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		if pd := pinnedDigest(s, wr.Name); pd != "" && pd != wr.Digest {
			fmt.Fprintf(w, "  NOTE the baseline's result_digest at this seed is %s: outputs changed (TestGoldenSweep gates behaviour)\n", pd)
		}
		names := make([]string, 0, len(wr.Metrics))
		for name := range wr.Metrics {
			names = append(names, name)
		}
		order := map[string]int{}
		for i, m := range Metrics() {
			order[m.Name] = i
		}
		sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
		for _, name := range names {
			sm := wr.Metrics[name]
			fmt.Fprintf(w, "  %-34s %-7s %14.6g  [%.6g, %.6g]  n=%d\n", name, sm.Unit, sm.Median, sm.Q1, sm.Q3, len(sm.Samples))
		}
	}
}

// SummaryLine is the one-line JSON summary of a one-workload set: whether
// every check passed, the units attempted and failed, and the median
// (the smallest sample for a Least metric) of every metric
// BENCHMARK.json lists — the per-layer ones when layers is set, the
// end-to-end ones otherwise.
func SummaryLine(s *Set, layers bool) ([]byte, error) {
	if len(s.Workloads) != 1 {
		return nil, fmt.Errorf("perf: the summary line needs exactly one workload, have %d", len(s.Workloads))
	}
	wr := s.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, m := range Metrics() {
		if !m.Listed || m.Layer != layers {
			continue
		}
		sm := wr.Metrics[m.Name]
		if sm == nil {
			missing = append(missing, m.Name)
			continue
		}
		v := sm.Median
		if m.Least {
			v = slices.Min(sm.Samples)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("perf: %s did not report %s", wr.Name, strings.Join(missing, ", "))
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.Correct(), wr.Attempted, wr.Failed, metrics})
}

// baselineSet is the first set recorded when the benchmark was added.
//
//go:embed baseline/set1.json
var baselineSet []byte

// pinnedDigest returns the baseline's result digest for the workload
// when s ran at the baseline's seed and scale, or "".
func pinnedDigest(s *Set, name string) string {
	var b Set
	if json.Unmarshal(baselineSet, &b) != nil || b.Seed != s.Seed || b.Smoke != s.Smoke {
		return ""
	}
	if w := b.workload(name); w != nil {
		return w.Digest
	}
	return ""
}
