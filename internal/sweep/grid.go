// Package sweep is the parallel scenario-sweep engine: it expands a
// grid specification into the cartesian product of scenario axes,
// executes the scenarios concurrently on a bounded worker pool with
// deterministic per-scenario seeds, and emits ranked results as JSON,
// CSV, or a terminal summary table. The paper's evaluation — {8 CV, 6
// NLP, 2 generative models} × {10 classification + 2 generative
// workloads} × {2 platforms} × parameter settings — is one Grid away,
// and the same machinery backs rate sweeps, replica scaling studies,
// and regression gates.
//
// Every axis is declared once, as an entry of the axes table in
// grid.go: its filter name, the Grid list that holds its values, and
// the Scenario field a value lands in. Expand walks the table like an
// odometer, model outermost and prefill chunk innermost, and the Only
// and Skip filters match the tokens the same entries read back off each
// normalized scenario. A new axis is a Grid list, a Scenario field and
// one table entry, placed where it should nest.
package sweep

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"path"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/workload"
)

// Grid is a scenario-grid specification. Empty axes take the full
// supported range (every model, every workload, both platforms) or the
// paper's default parameter (one replica, rate 1×, budget 0.02, accuracy
// loss 0.01, which core.Scenario.Normalize fills in). Incompatible
// model/workload pairings — a ResNet on an NLP stream, a classifier on a
// generative workload — are skipped during expansion rather than
// erroring, so "all models × all workloads" means "every pairing the
// paper's corpus defines". A name that is no model or no workload at
// all fails the expansion.
type Grid struct {
	Models     []string
	Workloads  []string
	Platforms  []string
	Dispatches []string
	Replicas   []int
	RateMults  []float64
	Budgets    []float64
	AccLosses  []float64
	ExitRules  []string
	// Metrics lists recorder modes to sweep ("exact", "sketch"); empty
	// means exact only.
	Metrics []string
	// RateSchedules lists arrival-rate schedule specs
	// ("phases:10x1/10x4", "sine:60/0.5/2", "square:30/0.5/4"); the
	// empty spec is the workload's native stationary process.
	RateSchedules []string
	// Autoscales lists replica-autoscaler specs ("1..4",
	// "1..4/window=2000"); the empty spec keeps the fixed Replicas axis.
	Autoscales []string
	// Heteros lists replica-heterogeneity specs ("1,0.5" cycles speed
	// factors over replica indexes); the empty spec is a homogeneous
	// cluster.
	Heteros []string
	// Faults lists fault-injection specs
	// ("crash:r1@2000+500;loss=0.001", "mtbf:8000/1000;delaydist=exp:2");
	// the empty spec is a perfectly reliable cluster.
	Faults []string
	// Retries lists dispatcher retry/hedging specs ("attempts=3",
	// "attempts=2/hedge=95"); the empty spec dispatches once.
	Retries []string
	// KVBlocks, BlockTokens, PrefixHits, and PrefillChunks sweep the
	// generative KV-block memory runtime (pool size, tokens per block,
	// prefix-cache hit ratio, chunked-prefill threshold); 0 members leave
	// the knob unset and classification scenarios clear the axes.
	KVBlocks      []int
	BlockTokens   []int
	PrefixHits    []float64
	PrefillChunks []int

	// Trace and Timeline turn on observability for every expanded
	// scenario — classification runs trace request lifecycles and
	// cluster gauges, generative runs trace sequence lifecycles and
	// KV-pool gauges. They are run-wide switches, not axes —
	// observability never enters a scenario's identity, so a traced
	// sweep expands to exactly the same scenarios and seeds as an
	// untraced one. ObsTickMS sets the timeline sampling period (0 =
	// obs.DefaultTickMS).
	Trace     bool
	Timeline  bool
	ObsTickMS float64

	// N is the request count per classification scenario; GenN is the
	// sequence count per generative scenario (generative decoding costs
	// far more simulated work per item).
	N    int
	GenN int

	// Seed is the sweep's base seed. Each scenario derives its own seed
	// from (Seed, scenario identity), so a scenario's stream does not
	// depend on where in the grid it sits or how many workers run it.
	Seed uint64

	// Only and Skip are per-axis include/exclude filters: glob patterns
	// matched against the scenario's axis tokens ("model=resnet50",
	// "workload=video-*", "platform=tf-serve", "replicas=4",
	// "rate=1.5", "budget=0.02", "accloss=0.01", "rule=entropy").
	// A scenario is kept when, for every axis that has at least one
	// Only pattern, one of that axis's patterns matches — and no Skip
	// pattern matches any token. A pattern without "=" matches its
	// value against every axis. Naming an axis no scenario carries is
	// an error, so a misspelt axis cannot silently filter nothing.
	Only []string
	Skip []string
}

// An axis is one dimension of the grid: the Grid list that holds its
// values, the Scenario field a value lands in, and the token the Only
// and Skip filters match on a normalized scenario.
type axis struct {
	// name is the axis as a filter names it ("model", "kv").
	name string
	// bind reads the axis off a grid: the number of values it sweeps,
	// and a setter that puts the i-th on a scenario.
	bind func(g *Grid) (n int, set func(sc *core.Scenario, i int))
	// token is a normalized scenario's value on the axis; ok is false
	// when the scenario lacks the axis.
	token func(sc *core.Scenario) (v string, ok bool)
}

// Whether a scenario carries an axis's filter token: always, or only
// while the axis's field is set (non-zero), so "only rule=*" keeps just
// the scenarios with an exit rule.
const (
	always  = false
	whenSet = true
)

// axisOf declares an axis over the Grid list list returns and the
// Scenario field at points to. An empty list sweeps the zero value,
// which Normalize turns into the paper's default (one replica, rate 1×,
// budget 0.02, accuracy loss 0.01, exact metrics) or leaves as an unset
// knob. Tokens print as fmt's %v does: %d for counts, %g for fractions.
func axisOf[T string | int | float64](name string, optional bool,
	list func(g *Grid) []T, at func(sc *core.Scenario) *T) axis {
	return axis{
		name: name,
		bind: func(g *Grid) (int, func(*core.Scenario, int)) {
			vs := list(g)
			if len(vs) == 0 {
				vs = make([]T, 1)
			}
			return len(vs), func(sc *core.Scenario, i int) { *at(sc) = vs[i] }
		},
		token: func(sc *core.Scenario) (string, bool) {
			v := *at(sc)
			if optional && v == *new(T) {
				return "", false
			}
			return fmt.Sprint(v), true
		},
	}
}

// orAll is list, or all() when list is empty: the axes whose empty list
// sweeps their full range use it.
func orAll(list []string, all func() []string) []string {
	if len(list) == 0 {
		return all()
	}
	return list
}

// axes is the one list of the grid's axes, in nesting order: Expand
// varies the last fastest, and an unknown-axis filter error lists them
// in this order. Model comes first and workload second: Expand looks up
// every model and checks every workload name before it builds a
// scenario. A new axis is a Grid list, a Scenario field and one entry
// here, placed where it should nest.
var axes = [...]axis{
	axisOf("model", always, func(g *Grid) []string { return orAll(g.Models, modelNames) },
		func(sc *core.Scenario) *string { return &sc.Model }),
	axisOf("workload", always, func(g *Grid) []string { return orAll(g.Workloads, workloadNames) },
		func(sc *core.Scenario) *string { return &sc.Workload }),
	axisOf("platform", always, func(g *Grid) []string { return orAll(g.Platforms, serving.Platforms) },
		func(sc *core.Scenario) *string { return &sc.Platform }),
	axisOf("dispatch", always, func(g *Grid) []string { return g.Dispatches },
		func(sc *core.Scenario) *string { return &sc.Dispatch }),
	axisOf("replicas", always, func(g *Grid) []int { return g.Replicas },
		func(sc *core.Scenario) *int { return &sc.Replicas }),
	axisOf("rate", always, func(g *Grid) []float64 { return g.RateMults },
		func(sc *core.Scenario) *float64 { return &sc.RateMult }),
	axisOf("budget", always, func(g *Grid) []float64 { return g.Budgets },
		func(sc *core.Scenario) *float64 { return &sc.RampBudget }),
	axisOf("accloss", always, func(g *Grid) []float64 { return g.AccLosses },
		func(sc *core.Scenario) *float64 { return &sc.AccLoss }),
	axisOf("rule", whenSet, func(g *Grid) []string { return g.ExitRules },
		func(sc *core.Scenario) *string { return &sc.ExitRule }),
	axisOf("metrics", always, func(g *Grid) []string { return g.Metrics },
		func(sc *core.Scenario) *string { return &sc.Metrics }),
	axisOf("schedule", whenSet, func(g *Grid) []string { return g.RateSchedules },
		func(sc *core.Scenario) *string { return &sc.RateSchedule }),
	axisOf("autoscale", whenSet, func(g *Grid) []string { return g.Autoscales },
		func(sc *core.Scenario) *string { return &sc.Autoscale }),
	axisOf("hetero", whenSet, func(g *Grid) []string { return g.Heteros },
		func(sc *core.Scenario) *string { return &sc.Hetero }),
	axisOf("faults", whenSet, func(g *Grid) []string { return g.Faults },
		func(sc *core.Scenario) *string { return &sc.Faults }),
	axisOf("retry", whenSet, func(g *Grid) []string { return g.Retries },
		func(sc *core.Scenario) *string { return &sc.Retry }),
	axisOf("kv", whenSet, func(g *Grid) []int { return g.KVBlocks },
		func(sc *core.Scenario) *int { return &sc.KVBlocks }),
	axisOf("blocktok", whenSet, func(g *Grid) []int { return g.BlockTokens },
		func(sc *core.Scenario) *int { return &sc.BlockTokens }),
	axisOf("prefixhit", whenSet, func(g *Grid) []float64 { return g.PrefixHits },
		func(sc *core.Scenario) *float64 { return &sc.PrefixHit }),
	axisOf("prefillchunk", whenSet, func(g *Grid) []int { return g.PrefillChunks },
		func(sc *core.Scenario) *int { return &sc.PrefillChunk }),
}

// modelNames lists the zoo, the models an empty Models list sweeps.
func modelNames() []string {
	var names []string
	for _, m := range model.All() {
		names = append(names, m.Name)
	}
	return names
}

// workloadNames lists every workload, classification then generative.
func workloadNames() []string { return append(workload.Names(), workload.GenNames()...) }

// axisFilter groups glob patterns by the index in axes of the axis
// they constrain.
type axisFilter map[int][]string

// bareAxis keys the patterns that name no axis: they match a value on
// any axis.
const bareAxis = -1

// parseFilters groups patterns by axis. A pattern's axis must be one
// axes lists, or absent, and its value must be a valid glob.
func parseFilters(patterns []string) (axisFilter, error) {
	f := axisFilter{}
	for _, p := range patterns {
		k, val := bareAxis, p
		if i := strings.IndexByte(p, '='); i >= 0 {
			val = p[i+1:]
			if name := p[:i]; name != "" {
				k = slices.IndexFunc(axes[:], func(a axis) bool { return a.name == name })
				if k < 0 {
					names := make([]string, len(axes))
					for i, a := range axes {
						names[i] = a.name
					}
					return nil, fmt.Errorf("sweep: unknown filter axis %q in %q (known axes: %s)",
						name, p, strings.Join(names, ", "))
				}
			}
		}
		if _, err := path.Match(val, ""); err != nil {
			return nil, fmt.Errorf("sweep: bad filter pattern %q: %v", p, err)
		}
		f[k] = append(f[k], val)
	}
	return f, nil
}

// scenarioTokens holds a scenario's token on each of axes.
type scenarioTokens [len(axes)]struct {
	v  string
	ok bool
}

// axisTokens lists a scenario's filterable axis values.
func axisTokens(sc *core.Scenario) scenarioTokens {
	var t scenarioTokens
	for i := range axes {
		t[i].v, t[i].ok = axes[i].token(sc)
	}
	return t
}

// matches reports whether pat matches the token on axis, or any token
// for a bare pattern. A scenario lacking an axis never matches a
// pattern on it.
func (t *scenarioTokens) matches(axis int, pat string) bool {
	for i, tok := range t {
		if tok.ok && (axis == bareAxis || axis == i) {
			if ok, _ := path.Match(pat, tok.v); ok {
				return true
			}
		}
	}
	return false
}

// keep applies Only semantics: every constrained axis must match. A
// scenario that lacks a conditional axis token entirely (rule,
// schedule, autoscale) cannot match a constraint on that axis — "only
// autoscale=*" means "only the autoscaled scenarios".
func (f axisFilter) keep(t *scenarioTokens) bool {
	for axis, pats := range f {
		if !slices.ContainsFunc(pats, func(pat string) bool { return t.matches(axis, pat) }) {
			return false
		}
	}
	return true
}

// drops applies Skip semantics: any match excludes the scenario.
// Scenarios lacking a conditional axis token are never dropped by a
// pattern on that axis ("skip autoscale=*" keeps the fixed-replica
// grid points).
func (f axisFilter) drops(t *scenarioTokens) bool {
	for axis, pats := range f {
		if slices.ContainsFunc(pats, func(pat string) bool { return t.matches(axis, pat) }) {
			return true
		}
	}
	return false
}

// Expand enumerates the grid's cartesian product by walking the axes
// table like an odometer, drops the pairings core.CheckPairing rejects
// (an unknown model or workload name fails the grid instead),
// canonicalizes scenarios (generative workloads collapse the
// platform/dispatch/replica axes), deduplicates, applies the Only/Skip
// filters, and derives each scenario's seed. The result is sorted by
// scenario identity, so the same grid always expands to the same
// ordered slice regardless of axis order in the specification.
func (g Grid) Expand() ([]core.Scenario, error) {
	only, err := parseFilters(g.Only)
	if err != nil {
		return nil, err
	}
	skip, err := parseFilters(g.Skip)
	if err != nil {
		return nil, err
	}
	n, genN := cmp.Or(g.N, 4000), cmp.Or(g.GenN, 40)

	// Digit k of the odometer indexes the size[k] values set[k] puts on
	// a scenario.
	var set [len(axes)]func(*core.Scenario, int)
	var size, digit [len(axes)]int
	for k := range axes {
		size[k], set[k] = axes[k].bind(&g)
	}
	// sc is the one scenario the setters fill: they take its address, so
	// a scenario per combination would each move to the heap.
	var sc core.Scenario
	// Look every model on the model axis, axes[0], up before building
	// any scenario, so an unknown name fails the grid first and each
	// model is built once. Then check every name on the workload axis,
	// axes[1]: the pairing rule below would otherwise drop a misspelt
	// workload for the models it cannot pair with, without a word.
	models := map[string]*model.Model{}
	for i := range size[0] {
		set[0](&sc, i)
		m, err := model.ByName(sc.Model)
		if err != nil {
			return nil, err
		}
		models[sc.Model] = m
	}
	for i := range size[1] {
		set[1](&sc, i)
		if err := core.CheckWorkload(sc.Workload); err != nil {
			return nil, err
		}
	}
	// Normalize below turns a negative replica count into one, so check
	// the replica axis before any scenario is normalized.
	for _, r := range g.Replicas {
		if err := core.CheckReplicas(r); err != nil {
			return nil, err
		}
	}

	seen := map[string]bool{}
	var out []core.Scenario
	var ids []string // out[i]'s identity, kept for the final sort
	for more := true; more; more = advance(digit[:], size[:]) {
		sc = core.Scenario{Trace: g.Trace, Timeline: g.Timeline, ObsTickMS: g.ObsTickMS}
		for k := range axes {
			set[k](&sc, digit[k])
		}
		if core.CheckPairing(models[sc.Model], sc.Workload) != nil {
			continue
		}
		sc.N = n
		if workload.IsGenerative(sc.Workload) {
			sc.N = genN
		}
		sc = sc.Normalize()
		id := sc.Identity()
		if seen[id] {
			continue
		}
		seen[id] = true
		if len(only)+len(skip) > 0 { // a grid without filters reads no token
			tokens := axisTokens(&sc)
			if !only.keep(&tokens) || skip.drops(&tokens) {
				continue
			}
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		sc.Seed = DeriveSeed(g.Seed, id)
		out = append(out, sc)
		ids = append(ids, id)
	}
	sort.Sort(&byIdentity{out, ids})
	return out, nil
}

// advance steps the odometer: the innermost digit below its size counts
// up and every digit inside it restarts at 0. It reports false after the
// last combination.
func advance(digit, size []int) bool {
	for k := len(digit) - 1; k >= 0; k-- {
		if digit[k]++; digit[k] < size[k] {
			return true
		}
		digit[k] = 0
	}
	return false
}

// byIdentity sorts scenarios and their precomputed identities together.
type byIdentity struct {
	scs []core.Scenario
	ids []string
}

func (s *byIdentity) Len() int           { return len(s.scs) }
func (s *byIdentity) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *byIdentity) Swap(i, j int) {
	s.scs[i], s.scs[j] = s.scs[j], s.scs[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// DeriveSeed maps (base seed, scenario identity) to the scenario's
// workload seed: an FNV-1a hash of the identity mixed with the base
// through one SplitMix64 step. The derivation depends only on the
// scenario's own axes, never on grid position, worker count, or
// completion order — the root of the sweep's byte-identical determinism
// guarantee.
func DeriveSeed(base uint64, identity string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(identity))
	return rng.New(h.Sum64() ^ base).Uint64()
}
