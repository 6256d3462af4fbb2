package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// Workers is the closed loop's client count: two workers pull scenarios
// from one queue, one per CPU of the machine the baseline was recorded
// on. Child processes run with GOMAXPROCS=Workers.
const Workers = 2

// maxFailures bounds the failure messages a report carries.
const maxFailures = 5

// Pass is one prepared pass of a workload: the inputs are generated
// before the pass is timed, so generating them counts as set-up.
type Pass struct {
	W *Workload
	// TmpDir holds the per-scenario obs directories of a traced
	// workload; each is removed once its files are checked.
	TmpDir string

	scenarios []core.Scenario
	cells     []Cell
}

// Prepare generates the pass's inputs.
func Prepare(w *Workload, seed uint64, scale int, tmpDir string) (*Pass, error) {
	p := &Pass{W: w, TmpDir: tmpDir}
	if w.Sequential() {
		p.cells = Cells(scale)
		return p, nil
	}
	scs, err := w.Scenarios(seed, scale)
	if err != nil {
		return nil, err
	}
	p.scenarios = scs
	return p, nil
}

// Units is the number of scenarios (or cells) in the pass.
func (p *Pass) Units() int { return len(p.scenarios) + len(p.cells) }

// Report is what one pass yields: counts, checks, the digest of every
// output, and the pass's metrics by name.
type Report struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the sha256 of the sweep.WriteJSON bytes of all results
	// (the JSON of all cells for static-ee); Hashes holds each unit's.
	Digest  string             `json:"result_digest"`
	Hashes  []string           `json:"unit_hashes"`
	Metrics map[string]float64 `json:"metrics"`
	Spans   []Span             `json:"spans,omitempty"`
}

func (r *Report) fail(unit, msg string) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, unit+": "+msg)
	}
}

// unit is the outcome of one scenario or cell.
type unit struct {
	name    string
	dur     time.Duration
	failure string // first failed output check, "" when all passed
	out     any    // the unit's result: a sweep.Result or a CellResult
}

// pool runs fn over n indexes on the closed loop: workers pull the next
// index as soon as they finish one. It returns the pass wall time.
func pool(n, workers int, fn func(i int)) time.Duration {
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(start)
}

// RunEndToEnd runs the pass through the public entry points users call:
// sweep.Run once per scenario on the worker pool, or the static-ee cells
// one after another.
func (p *Pass) RunEndToEnd() *Report {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	units := make([]unit, p.Units())
	var wall time.Duration
	if p.W.Sequential() {
		start := time.Now()
		for i, c := range p.cells {
			units[i] = runCell(c, nil)
		}
		wall = time.Since(start)
	} else {
		wall = pool(len(p.scenarios), Workers, func(i int) { units[i] = p.runScenario(p.scenarios[i]) })
	}
	runtime.ReadMemStats(&after)

	rep := p.report(units, wall)
	busy := time.Duration(0)
	for _, u := range units {
		busy += u.dur
	}
	workers := Workers
	if p.W.Sequential() {
		workers = 1
	}
	rep.Metrics["sweep.busy_frac"] = busy.Seconds() / (float64(workers) * wall.Seconds())
	rep.Metrics["go.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	rep.Metrics["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	return rep
}

// runScenario calls sweep.Run on one scenario, timing only that call,
// and checks its result.
func (p *Pass) runScenario(sc core.Scenario) unit {
	opts := sweep.Options{Workers: 1}
	if p.W.Traced {
		dir, err := os.MkdirTemp(p.TmpDir, "obs-")
		if err != nil {
			return failedUnit(sc, err)
		}
		defer os.RemoveAll(dir)
		opts.ObsDir = dir
	}
	start := time.Now()
	res := sweep.Run([]core.Scenario{sc}, opts)[0]
	u := scenarioUnit(res, time.Since(start))
	if u.failure == "" && p.W.Traced {
		u.failure = checkObsFiles(opts.ObsDir)
	}
	return u
}

func scenarioUnit(res sweep.Result, dur time.Duration) unit {
	return unit{name: res.Scenario.Identity(), dur: dur, failure: CheckResult(res), out: res}
}

func failedUnit(sc core.Scenario, err error) unit {
	return unit{name: sc.Identity(), failure: err.Error(), out: sweep.Result{Result: core.Result{Scenario: sc}, Err: err.Error()}}
}

// checkObsFiles checks that a traced scenario left non-empty trace and
// timeline files behind.
func checkObsFiles(dir string) string {
	for _, name := range []string{"trace_000.jsonl", "timeline_000.csv"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err.Error()
		}
		if fi.Size() == 0 {
			return name + " is empty"
		}
	}
	return ""
}

// report folds the units of a pass into its Report and end-to-end
// metrics.
func (p *Pass) report(units []unit, wall time.Duration) *Report {
	rep := &Report{Attempted: len(units), Metrics: map[string]float64{}}
	var results []sweep.Result
	var cells []CellResult
	var ms, wins []float64
	requests, class, violated := 0, 0, 0
	for _, u := range units {
		if u.failure != "" {
			rep.fail(u.name, u.failure)
		}
		rep.Hashes = append(rep.Hashes, hashJSON(u.out))
		ms = append(ms, float64(u.dur)/float64(time.Millisecond))
		switch r := u.out.(type) {
		case sweep.Result:
			results = append(results, r)
			requests += 2 * r.Requests
			wins = append(wins, r.P50Win)
			if !r.Generative {
				class++
				if r.AccDelta > r.Scenario.AccLoss {
					violated++
				}
			}
		case CellResult:
			cells = append(cells, r)
			requests += 2 * r.Requests
			wins = append(wins, r.P50Win)
		}
	}
	digest := sha256.New()
	var err error
	if p.W.Sequential() {
		enc := json.NewEncoder(digest)
		enc.SetIndent("", "  ")
		err = enc.Encode(cells)
	} else {
		err = sweep.WriteJSON(digest, results)
	}
	if err != nil {
		panic(err) // results always encode; failing here is a bug
	}
	rep.Digest = hex.EncodeToString(digest.Sum(nil))

	n := float64(len(units))
	m := rep.Metrics
	m["wall_s"] = wall.Seconds()
	m["sim_req_per_s"] = float64(requests) / wall.Seconds()
	m["scenario_ms_p50"], _ = Percentile(ms, 50)
	if v, ok := Percentile(ms, 90); ok {
		m["scenario_ms_p90"] = v
	}
	m["failed_frac"] = float64(rep.Failed) / n
	m["p50_win_pct"], _ = Percentile(wins, 50)
	if class > 0 {
		m["acc_violation_frac"] = float64(violated) / float64(class)
	}
	return rep
}

// CheckResult applies the output checks to one sweep result and returns
// the first that fails, or "".
func CheckResult(r sweep.Result) string {
	if r.Err != "" {
		return "error: " + r.Err
	}
	if r.Requests != r.Scenario.N {
		return fmt.Sprintf("served %d requests, want %d", r.Requests, r.Scenario.N)
	}
	for _, s := range []struct {
		run string
		sum core.RunSummary
	}{{"vanilla", r.Vanilla}, {"apparate", r.Apparate}} {
		if msg := checkSummary(s.sum, r.Generative); msg != "" {
			return s.run + " " + msg
		}
	}
	if r.KVUtil < 0 || r.KVUtil > 1 {
		return fmt.Sprintf("kv_util %g outside [0,1]", r.KVUtil)
	}
	return ""
}

// checkSummary checks one run's rates and percentile order. A
// classification run delivered something unless it dropped every
// request; a generative run did unless it generated no token (then its
// percentiles stay zero).
func checkSummary(s core.RunSummary, generative bool) string {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop rate", s.DropRate}, {"slo-miss rate", s.SLOMissRate}, {"accuracy", s.Accuracy}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Sprintf("%s %g outside [0,1]", r.name, r.v)
		}
	}
	delivered := s.DropRate < 1
	if generative {
		delivered = s.P99ms > 0
	}
	// Interpolated percentiles of tied samples may differ in the last
	// bits, so order is checked to a relative 1e-9.
	le := func(a, b float64) bool { return a <= b+1e-9*math.Abs(b) }
	if delivered && !(le(s.P25ms, s.P50ms) && le(s.P50ms, s.P95ms) && le(s.P95ms, s.P99ms)) {
		return fmt.Sprintf("percentiles out of order: p25 %g p50 %g p95 %g p99 %g", s.P25ms, s.P50ms, s.P95ms, s.P99ms)
	}
	return ""
}

// hashJSON returns the hex sha256 of v's JSON encoding.
func hashJSON(v any) string {
	js, err := json.Marshal(v)
	if err != nil {
		panic(err) // results always encode; failing here is a bug
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}
