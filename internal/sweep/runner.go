package sweep

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
)

// Result is one sweep entry: the scenario's outcome, or the error that
// kept it from completing. Failed scenarios keep their slot so a sweep's
// output always has one row per expanded scenario.
type Result struct {
	core.Result
	Err string `json:"error,omitempty"`
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds concurrent scenario executions; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each scenario completes
	// with the number done so far and the total. Calls are serialized
	// but arrive in completion order, which varies run to run — use it
	// for progress display only, never for output.
	Progress func(done, total int)
	// ObsDir, when non-empty, writes each traced scenario's
	// observability output into that directory: trace_<idx>.jsonl when
	// the scenario's Trace knob is set, timeline_<idx>.csv when its
	// Timeline knob is set, where <idx> is the scenario's position in
	// the expanded (identity-sorted) slice. Index naming keeps the
	// filenames — and, with the per-scenario seeds, the file bytes —
	// identical for any worker count. The files are written during the
	// run, event by event and row by row, so a traced scenario holds no
	// trace in memory; a scenario that fails (an invalid spec, a write
	// error, a panic) leaves neither file behind. The directory must
	// exist.
	ObsDir string
}

// Run executes the scenarios on a bounded worker pool. Results are
// returned in scenario order, not completion order, and every scenario
// derives all randomness from its own seed, so the output is identical
// for any worker count.
func Run(scenarios []core.Scenario, opts Options) []Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	results := make([]Result, len(scenarios))
	if len(scenarios) == 0 {
		return results
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runOne(scenarios[i], i, opts.ObsDir)
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(scenarios))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runOne executes a single scenario, converting panics into per-scenario
// errors so one pathological grid point cannot take down a sweep. When
// the scenario asks for observability and obsDir is set, the sinks
// stream into idx-named files while it runs; a scenario that fails
// removes the files it created.
func runOne(sc core.Scenario, idx int, obsDir string) (out Result) {
	var files []*os.File
	defer func() {
		if r := recover(); r != nil {
			out = Result{Result: core.Result{Scenario: sc}, Err: fmt.Sprintf("panic: %v", r)}
		}
		for _, f := range files {
			if err := f.Close(); err != nil && out.Err == "" {
				out.Err = err.Error()
			}
		}
		if out.Err != "" {
			for _, f := range files {
				// Best effort: the row already reports the failure.
				os.Remove(f.Name())
			}
		}
	}()
	// An untraced scenario creates no file, so RunScenario's own
	// validation is all it needs.
	if obsDir == "" || (!sc.Trace && !sc.Timeline) {
		res, err := core.RunScenario(sc)
		if err != nil {
			return Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
		}
		return Result{Result: *res}
	}
	// Validate before creating any file: a scenario rejected up front
	// must not leave an empty trace behind.
	if err := sc.Validate(); err != nil {
		return Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
	}
	create := func(on bool, pattern string) (io.Writer, error) {
		if !on {
			return nil, nil
		}
		f, err := os.Create(filepath.Join(obsDir, fmt.Sprintf(pattern, idx)))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	traceW, err := create(sc.Trace, "trace_%03d.jsonl")
	if err != nil {
		return Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
	}
	timelineW, err := create(sc.Timeline, "timeline_%03d.csv")
	if err != nil {
		return Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
	}
	res, _, err := core.RunScenarioTo(sc, traceW, nil, timelineW)
	switch {
	case res == nil:
		return Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
	case err != nil:
		// The simulation completed, but a sink's file failed.
		return Result{Result: *res, Err: err.Error()}
	}
	return Result{Result: *res}
}
