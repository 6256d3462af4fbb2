package perf

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload is one named set of inputs the benchmark runs. Pooled
// workloads expand sweep grids into scenarios that two workers pull
// from a queue; static-ee is a fixed list of cells run one after
// another, as apparate-bench runs table2.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists; the package
	// documentation gives the layers each workload stresses and bypasses.
	Why string
	// Count is the pinned number of scenarios (cells for static-ee).
	Count int
	// Traced turns on Trace and Timeline for every scenario; the obs
	// files go to a per-scenario temporary directory.
	Traced bool

	grids func(seed uint64, scale int) []sweep.Grid
}

// Sequential reports whether the workload runs cells one at a time
// instead of on the worker pool.
func (w *Workload) Sequential() bool { return w.grids == nil }

// Full-scale request counts. -smoke divides each by SmokeScale.
const (
	sweepN   = 8000
	clusterN = 3000
	genN     = 2000
	videoN   = 3000
	amazonN  = 400

	// SmokeScale is the divisor -smoke applies to every request count.
	SmokeScale = 50
)

func scaled(n, scale int) int {
	if scale <= 1 {
		return n
	}
	if n /= scale; n < 1 {
		n = 1
	}
	return n
}

// Workloads lists the benchmark's workloads in canonical order.
func Workloads() []*Workload {
	chaos := func(traced bool) func(uint64, int) []sweep.Grid {
		return func(seed uint64, scale int) []sweep.Grid {
			return []sweep.Grid{{
				Models:        []string{"resnet18", "resnet50", "distilbert-base", "bert-base"},
				Workloads:     []string{"video-1", "amazon"},
				Platforms:     serving.Platforms(),
				Replicas:      []int{8},
				Dispatches:    []string{"least-loaded", "join-shortest-queue"},
				Heteros:       []string{"", "1,0.5"},
				Autoscales:    []string{"", "2..8"},
				RateSchedules: []string{"square:30/0.5/2"},
				Faults:        []string{"mtbf:20000/1000;delaydist=exp:1;loss=0.001"},
				Retries:       []string{"attempts=3/hedge=95", "attempts=2"},
				N:             scaled(clusterN, scale),
				Seed:          seed,
				Trace:         traced,
				Timeline:      traced,
			}}
		}
	}
	genPairs := func(g sweep.Grid) sweep.Grid {
		g.Models = []string{"t5-large", "llama2-7b", "llama2-13b"}
		g.Workloads = []string{"cnn-dailymail", "squad"}
		return g
	}
	return []*Workload{
		{
			Name:  "sweep-class",
			Why:   "the paper's classification grid, single replica: controller-bound",
			Count: 104,
			grids: func(seed uint64, scale int) []sweep.Grid {
				return []sweep.Grid{{
					Models:    []string{"resnet18", "resnet50", "vgg11", "distilbert-base", "bert-base"},
					Workloads: []string{"video-0", "video-1", "video-2", "amazon", "imdb"},
					Platforms: serving.Platforms(),
					Budgets:   []float64{0.01, 0.02},
					AccLosses: []float64{0.01, 0.05},
					N:         scaled(sweepN, scale),
					Seed:      seed,
				}}
			},
		},
		{
			Name:  "cluster-chaos",
			Why:   "8-replica clusters under faults, retries, hedging and autoscaling: runtime-bound",
			Count: 128,
			grids: chaos(false),
		},
		{
			Name:   "cluster-chaos-traced",
			Why:    "cluster-chaos with Trace and Timeline on, to isolate the cost of internal/obs",
			Count:  128,
			Traced: true,
			grids:  chaos(true),
		},
		{
			Name:  "gen",
			Why:   "generative serving on the classic and KV-block runtimes, half each",
			Count: 102,
			grids: func(seed uint64, scale int) []sweep.Grid {
				n := scaled(genN, scale)
				classic := genPairs(sweep.Grid{
					AccLosses: []float64{0.01, 0.02, 0.05},
					RateMults: []float64{0.5, 1, 2},
					GenN:      n,
					Seed:      seed,
				})
				kv := genPairs(sweep.Grid{
					KVBlocks:      []int{48, 96},
					PrefixHits:    []float64{0, 0.5},
					PrefillChunks: []int{0, 256},
					GenN:          n,
					Seed:          seed,
				})
				return []sweep.Grid{classic, kv}
			},
		},
		{
			Name:  "static-ee",
			Why:   "table2's static-EE baselines: one-time threshold tuning by replay",
			Count: 8,
		},
	}
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (*Workload, error) {
	var names []string
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("perf: unknown workload %q (want %s)", name, strings.Join(names, " | "))
}

// Scenarios expands a pooled workload's grids at the given seed and
// scale (1 = full size, SmokeScale for -smoke).
func (w *Workload) Scenarios(seed uint64, scale int) ([]core.Scenario, error) {
	var out []core.Scenario
	for _, g := range w.grids(seed, scale) {
		scs, err := g.Expand()
		if err != nil {
			return nil, fmt.Errorf("perf: expand %s: %w", w.Name, err)
		}
		out = append(out, scs...)
	}
	return out, nil
}

// System names one static-ee serving system.
type System string

// The four systems each static-ee stream runs against its vanilla
// baseline: Apparate and baselines.StaticEE in its three tuning modes.
const (
	SysApparate System = "apparate"
	SysShared   System = "shared"
	SysPerRamp  System = "per-ramp"
	SysOracle   System = "oracle"
)

// EEStream is one static-ee input stream with the EE architecture its
// static baseline uses.
type EEStream struct {
	Label    string
	Model    *model.Model
	Kind     exitsim.Kind
	Style    ramp.Style
	Overhead float64
	Stream   *workload.Stream
	// Samples is the materialized stream; the first tenth is the
	// bootstrap set the non-oracle variants tune on.
	Samples []exitsim.Sample
}

// Cell is one static-ee unit of work: one system on one stream.
type Cell struct {
	*EEStream
	System System
}

// Name identifies the cell, e.g. "resnet50/video-1/per-ramp".
func (c Cell) Name() string { return c.Label + "/" + string(c.System) }

// Cells builds static-ee's eight cells. Its streams keep table2's seeds
// whatever the benchmark seed: the replay that tunes the static
// thresholds runs until its coordinate ascent stops, which depends on the
// whole stream, so on a 2-CPU machine a pass took 2.3–3.9 s across seeds
// 1–10, a spread no bound could absorb.
func Cells(scale int) []Cell {
	rn, bert := model.ResNet50(), model.BERTBase()
	video := workload.Video(1, scaled(videoN, scale), 30, 21)
	amazon := workload.Amazon(scaled(amazonN, scale), trace.TargetQPS(bert), 20)
	streams := []*EEStream{
		{Label: "resnet50/video-1", Model: rn, Kind: exitsim.KindVideo, Style: ramp.StyleDefault, Overhead: 0.22, Stream: video},
		{Label: "bert-base/amazon", Model: bert, Kind: exitsim.KindAmazon, Style: ramp.StyleDeeBERTPooler, Overhead: 0.195, Stream: amazon},
	}
	var out []Cell
	for _, s := range streams {
		s.Samples = s.Stream.Samples()
		for _, sys := range []System{SysApparate, SysShared, SysPerRamp, SysOracle} {
			out = append(out, Cell{EEStream: s, System: sys})
		}
	}
	return out
}
