package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// Options configures a set of runs.
type Options struct {
	Workloads []*Workload
	Seed      uint64
	// Smoke divides every request count by SmokeScale.
	Smoke bool
	// Rounds is the number of rounds; each runs every workload once, in
	// a fresh child process, in an order that rotates from round to
	// round. With Seconds > 0, rounds instead repeat while the next one
	// is expected to end within Seconds (at least one runs).
	Rounds  int
	Seconds float64
	// Layers adds a layers pass after each end-to-end pass.
	Layers bool
}

// Set is the outcome of a set of runs.
type Set struct {
	Commit    string            `json:"commit"`
	Go        string            `json:"go"`
	NProc     int               `json:"nproc"`
	Seed      uint64            `json:"seed"`
	Smoke     bool              `json:"smoke,omitempty"`
	Rounds    int               `json:"rounds"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// WorkloadResult gathers one workload's passes.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Units     int      `json:"scenarios"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the result digest of the first end-to-end pass; a pass
	// with another digest counts as failed (nondeterminism).
	Digest string `json:"result_digest"`
	// Metrics holds each metric's per-pass samples and their quartiles:
	// end-to-end metrics from the end-to-end passes, per-layer metrics
	// from the layers passes (sweep.busy_frac and go.* from the
	// end-to-end ones).
	Metrics map[string]*Summary `json:"metrics"`
	// Spans are the last layers pass's spans; they go to layers.json,
	// not the set file.
	Spans []Span `json:"-"`
}

// Summary is one metric's samples with their quartiles.
type Summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
}

// add records one pass's value of a metric, scaled by the pass's speed
// factor when it is a host time.
func (w *WorkloadResult) add(name string, v, factor float64) {
	m, err := MetricByName(name)
	if err != nil {
		m = Metric{Name: name}
	}
	s := w.Metrics[name]
	if s == nil {
		s = &Summary{Unit: m.Unit}
		w.Metrics[name] = s
	}
	s.Samples = append(s.Samples, m.scale(v, factor))
	s.Q1, s.Median, s.Q3 = Quartiles(s.Samples)
}

func (w *WorkloadResult) fail(msg string) {
	w.Failed++
	w.note(msg)
}

func (w *WorkloadResult) note(msg string) {
	if len(w.Failures) < maxFailures {
		w.Failures = append(w.Failures, msg)
	}
}

// absorb counts a pass's attempts and failures.
func (w *WorkloadResult) absorb(prefix string, rep *Report) {
	w.Attempted += rep.Attempted
	w.Failed += rep.Failed
	for _, f := range rep.Failures {
		w.note(prefix + f)
	}
}

// Correct reports whether every pass of every workload passed its checks.
func (s *Set) Correct() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// Commit returns the VCS revision the binary was built from, with
// "+dirty" when the tree had local changes, or "unknown" for a build
// outside a git checkout.
func Commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// RunSet runs the set: every round runs each workload's end-to-end pass
// (and, with Layers, its layers pass) in fresh child processes of the
// running binary, logging one line per pass to standard error.
func RunSet(o Options) (*Set, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &Set{Commit: Commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: o.Seed, Smoke: o.Smoke}
	for _, w := range o.Workloads {
		set.Workloads = append(set.Workloads, &WorkloadResult{Name: w.Name, Units: w.Count, Metrics: map[string]*Summary{}})
	}
	start := time.Now()
	var longest time.Duration
	for round := 0; ; round++ {
		if o.Seconds > 0 {
			if round > 0 && time.Since(start)+longest > time.Duration(o.Seconds*float64(time.Second)) {
				break
			}
		} else if round >= o.Rounds {
			break
		}
		roundStart := time.Now()
		for k := range o.Workloads {
			i := (k + round) % len(o.Workloads)
			if err := runWorkload(exe, o, o.Workloads[i], set.Workloads[i], round); err != nil {
				return nil, err
			}
		}
		longest = max(longest, time.Since(roundStart))
		set.Rounds++
	}
	return set, nil
}

// runWorkload runs one workload's passes for one round.
func runWorkload(exe string, o Options, w *Workload, wr *WorkloadResult, round int) error {
	rep, proc, err := runChild(exe, o, w, "e2e")
	if err != nil {
		return err
	}
	wr.absorb("", rep)
	if wr.Digest == "" {
		wr.Digest = rep.Digest
	} else if rep.Digest != wr.Digest {
		wr.fail(fmt.Sprintf("round %d: result digest %s differs from %s: nondeterministic output", round+1, rep.Digest, wr.Digest))
	}
	f := speedFactor(rep)
	for name, v := range proc {
		wr.add(name, v, f)
	}
	for name, v := range rep.Metrics {
		wr.add(name, v, f)
	}
	logPass(w.Name, "e2e", round, proc, rep)
	if !o.Layers {
		return nil
	}

	lrep, _, err := runChild(exe, o, w, "layers")
	if err != nil {
		return err
	}
	wr.absorb("layers: ", lrep)
	if len(lrep.Hashes) != len(rep.Hashes) {
		wr.fail(fmt.Sprintf("layers: %d results, end-to-end pass had %d", len(lrep.Hashes), len(rep.Hashes)))
	}
	for i, h := range lrep.Hashes {
		if i < len(rep.Hashes) && h != rep.Hashes[i] {
			wr.fail(fmt.Sprintf("layers: scenario %d: composed result differs from core.RunScenario's", i))
		}
	}
	lf := speedFactor(lrep)
	for name, v := range lrep.Metrics {
		if m, err := MetricByName(name); err == nil && m.Layer && name != "bench.calib_ms" {
			wr.add(name, v, lf)
		}
	}
	wr.add("bench.layers_overhead_frac", (lrep.Metrics["wall_s"]*lf)/(rep.Metrics["wall_s"]*f)-1, 1)
	wr.Spans = lrep.Spans
	logPass(w.Name, "layers", round, nil, lrep)
	return nil
}

// speedFactor is RefCalib ÷ the pass's calibration time.
func speedFactor(rep *Report) float64 {
	return float64(RefCalib) / float64(time.Millisecond) / rep.Metrics["bench.calib_ms"]
}

func logPass(name, kind string, round int, proc map[string]float64, rep *Report) {
	fmt.Fprintf(os.Stderr, "round %d %-21s %-6s wall %6.2fs calib %5.1fms", round+1, name, kind, rep.Metrics["wall_s"], rep.Metrics["bench.calib_ms"])
	if proc != nil {
		fmt.Fprintf(os.Stderr, "  setup %.3fs  cpu %6.2fs  rss %4.0fMiB", proc["setup_s"], proc["cpu_s"], proc["peak_rss_mib"])
	}
	fmt.Fprintf(os.Stderr, "  failed %d/%d\n", rep.Failed, rep.Attempted)
}

// ChildFlag is the flag that makes the benchmark binary run one pass
// and report it on standard output.
const ChildFlag = "child"

// runChild runs one pass in a fresh process of the benchmark binary. It
// returns the child's report and what the parent measured: set-up time
// (start until the child is ready to run the pass), CPU time and peak
// RSS.
func runChild(exe string, o Options, w *Workload, kind string) (*Report, map[string]float64, error) {
	args := []string{"-" + ChildFlag, kind, "-workload", w.Name, "-seed", strconv.FormatUint(o.Seed, 10)}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(Workers))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	r := bufio.NewReader(out)
	ready, err := r.ReadString('\n')
	setup := time.Since(start)
	var rep Report
	if err == nil && ready != "ready\n" {
		err = fmt.Errorf("unexpected first line %q", ready)
	}
	if err == nil {
		err = json.NewDecoder(r).Decode(&rep)
	}
	// Drain whatever is left so the child never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("perf: %s pass of %s: %w", kind, w.Name, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return &rep, map[string]float64{
		"setup_s":      setup.Seconds(),
		"cpu_s":        cpu.Seconds(),
		"peak_rss_mib": float64(ru.Maxrss) / 1024, // KiB on Linux
	}, nil
}

// ChildMain runs one pass of the named workload and writes the protocol
// runChild reads: "ready" once the inputs are generated, then the
// report as one JSON line. The calibration loop runs before and after
// the pass.
func ChildMain(kind, workload string, seed uint64, smoke bool, stdout io.Writer) error {
	w, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "apparate-perf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	scale := 1
	if smoke {
		scale = SmokeScale
	}
	p, err := Prepare(w, seed, scale, tmp)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, "ready\n"); err != nil {
		return err
	}
	calibrators := Workers
	if w.Sequential() {
		calibrators = 1
	}
	before := Calibrate(calibrators)
	var rep *Report
	switch kind {
	case "e2e":
		rep = p.RunEndToEnd()
	case "layers":
		rep = p.RunLayers()
	default:
		return fmt.Errorf("perf: unknown pass kind %q", kind)
	}
	rep.Metrics["bench.calib_ms"] = float64(before+Calibrate(calibrators)) / 2 / float64(time.Millisecond)
	return json.NewEncoder(stdout).Encode(rep)
}

// LayersFile is what -layers writes at exit: per workload, the per-layer
// metrics and the spans of the last layers pass.
func LayersFile(s *Set) any {
	type workload struct {
		Name    string              `json:"name"`
		Metrics map[string]*Summary `json:"metrics"`
		Spans   []Span              `json:"spans"`
	}
	out := struct {
		Commit    string     `json:"commit"`
		Go        string     `json:"go"`
		NProc     int        `json:"nproc"`
		Seed      uint64     `json:"seed"`
		Workloads []workload `json:"workloads"`
	}{Commit: s.Commit, Go: s.Go, NProc: s.NProc, Seed: s.Seed}
	for _, w := range s.Workloads {
		lw := workload{Name: w.Name, Metrics: map[string]*Summary{}, Spans: w.Spans}
		for name, sm := range w.Metrics {
			if m, err := MetricByName(name); err == nil && m.Layer {
				lw.Metrics[name] = sm
			}
		}
		out.Workloads = append(out.Workloads, lw)
	}
	return out
}
