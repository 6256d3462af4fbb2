// Package sweep is the parallel scenario-sweep engine: it expands a
// grid specification into the cartesian product of scenario axes,
// executes the scenarios concurrently on a bounded worker pool with
// deterministic per-scenario seeds, and emits ranked results as JSON,
// CSV, or a terminal summary table. The paper's evaluation — {8 CV, 6
// NLP, 2 generative models} × {10 classification + 2 generative
// workloads} × {2 platforms} × parameter settings — is one Grid away,
// and the same machinery backs rate sweeps, replica scaling studies,
// and regression gates.
package sweep

import (
	"fmt"
	"hash/fnv"
	"path"
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
// loss 0.01). Incompatible model/workload pairings — a ResNet on an NLP
// stream, a classifier on a generative workload — are skipped during
// expansion rather than erroring, so "all models × all workloads"
// means "every pairing the paper's corpus defines".
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
	// value against every axis.
	Only []string
	Skip []string
}

func (g Grid) withDefaults() Grid {
	if len(g.Models) == 0 {
		for _, m := range model.All() {
			g.Models = append(g.Models, m.Name)
		}
	}
	if len(g.Workloads) == 0 {
		g.Workloads = append(workload.Names(), workload.GenNames()...)
	}
	if len(g.Platforms) == 0 {
		g.Platforms = serving.Platforms()
	}
	if len(g.Dispatches) == 0 {
		g.Dispatches = []string{"round-robin"}
	}
	if len(g.Replicas) == 0 {
		g.Replicas = []int{1}
	}
	if len(g.RateMults) == 0 {
		g.RateMults = []float64{1}
	}
	if len(g.Budgets) == 0 {
		g.Budgets = []float64{0.02}
	}
	if len(g.AccLosses) == 0 {
		g.AccLosses = []float64{0.01}
	}
	if len(g.ExitRules) == 0 {
		g.ExitRules = []string{""}
	}
	if len(g.Metrics) == 0 {
		g.Metrics = []string{""}
	}
	if len(g.RateSchedules) == 0 {
		g.RateSchedules = []string{""}
	}
	if len(g.Autoscales) == 0 {
		g.Autoscales = []string{""}
	}
	if len(g.Heteros) == 0 {
		g.Heteros = []string{""}
	}
	if len(g.Faults) == 0 {
		g.Faults = []string{""}
	}
	if len(g.Retries) == 0 {
		g.Retries = []string{""}
	}
	if len(g.KVBlocks) == 0 {
		g.KVBlocks = []int{0}
	}
	if len(g.BlockTokens) == 0 {
		g.BlockTokens = []int{0}
	}
	if len(g.PrefixHits) == 0 {
		g.PrefixHits = []float64{0}
	}
	if len(g.PrefillChunks) == 0 {
		g.PrefillChunks = []int{0}
	}
	if g.N == 0 {
		g.N = 4000
	}
	if g.GenN == 0 {
		g.GenN = 40
	}
	return g
}

// axisFilter groups glob patterns by the axis they constrain.
type axisFilter map[string][]string

func parseFilters(patterns []string) (axisFilter, error) {
	f := axisFilter{}
	for _, p := range patterns {
		axis, val := "", p
		if i := strings.IndexByte(p, '='); i >= 0 {
			axis, val = p[:i], p[i+1:]
		}
		if _, err := path.Match(val, ""); err != nil {
			return nil, fmt.Errorf("sweep: bad filter pattern %q: %v", p, err)
		}
		f[axis] = append(f[axis], val)
	}
	return f, nil
}

// axisTokens lists a scenario's filterable axis values.
func axisTokens(sc core.Scenario) map[string]string {
	t := map[string]string{
		"model":    sc.Model,
		"workload": sc.Workload,
		"platform": sc.Platform,
		"dispatch": sc.Dispatch,
		"replicas": fmt.Sprintf("%d", sc.Replicas),
		"rate":     fmt.Sprintf("%g", sc.RateMult),
		"budget":   fmt.Sprintf("%g", sc.RampBudget),
		"accloss":  fmt.Sprintf("%g", sc.AccLoss),
		"metrics":  sc.Metrics,
	}
	if sc.ExitRule != "" {
		t["rule"] = sc.ExitRule
	}
	if sc.RateSchedule != "" {
		t["schedule"] = sc.RateSchedule
	}
	if sc.Autoscale != "" {
		t["autoscale"] = sc.Autoscale
	}
	if sc.Hetero != "" {
		t["hetero"] = sc.Hetero
	}
	if sc.Faults != "" {
		t["faults"] = sc.Faults
	}
	if sc.Retry != "" {
		t["retry"] = sc.Retry
	}
	if sc.KVBlocks != 0 {
		t["kv"] = fmt.Sprintf("%d", sc.KVBlocks)
	}
	if sc.BlockTokens != 0 {
		t["blocktok"] = fmt.Sprintf("%d", sc.BlockTokens)
	}
	if sc.PrefixHit != 0 {
		t["prefixhit"] = fmt.Sprintf("%g", sc.PrefixHit)
	}
	if sc.PrefillChunk != 0 {
		t["prefillchunk"] = fmt.Sprintf("%d", sc.PrefillChunk)
	}
	return t
}

// keep applies Only semantics: every constrained axis must match. A
// scenario that lacks a conditional axis token entirely (rule,
// schedule, autoscale) cannot match a constraint on that axis — "only
// autoscale=*" means "only the autoscaled scenarios".
func (f axisFilter) keep(tokens map[string]string) bool {
	for axis, pats := range f {
		matched := false
		for _, pat := range pats {
			if axis == "" {
				for _, v := range tokens {
					if ok, _ := path.Match(pat, v); ok {
						matched = true
						break
					}
				}
			} else if v, present := tokens[axis]; present {
				if ok, _ := path.Match(pat, v); ok {
					matched = true
				}
			}
			if matched {
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// drops applies Skip semantics: any match excludes the scenario.
// Scenarios lacking a conditional axis token are never dropped by a
// pattern on that axis ("skip autoscale=*" keeps the fixed-replica
// grid points).
func (f axisFilter) drops(tokens map[string]string) bool {
	for axis, pats := range f {
		for _, pat := range pats {
			if axis == "" {
				for _, v := range tokens {
					if ok, _ := path.Match(pat, v); ok {
						return true
					}
				}
			} else if v, present := tokens[axis]; present {
				if ok, _ := path.Match(pat, v); ok {
					return true
				}
			}
		}
	}
	return false
}

// compatible reports whether the model can serve the workload under the
// paper's corpus pairing (mirrors core.Scenario.Validate without
// constructing the model twice per grid point).
func compatible(m *model.Model, wl string) bool {
	switch {
	case workload.IsGenerative(wl):
		return m.Generative
	case m.Generative:
		return false
	case workload.IsVideo(wl):
		return m.Family.IsCV()
	default: // amazon, imdb
		return !m.Family.IsCV()
	}
}

// Expand enumerates the grid's cartesian product, drops incompatible
// pairings, canonicalizes scenarios (generative workloads collapse the
// platform/dispatch/replica axes), deduplicates, applies the Only/Skip
// filters, and derives each scenario's seed. The result is sorted by
// scenario identity, so the same grid always expands to the same
// ordered slice regardless of axis order in the specification.
func (g Grid) Expand() ([]core.Scenario, error) {
	g = g.withDefaults()
	only, err := parseFilters(g.Only)
	if err != nil {
		return nil, err
	}
	skip, err := parseFilters(g.Skip)
	if err != nil {
		return nil, err
	}

	models := make(map[string]*model.Model, len(g.Models))
	for _, name := range g.Models {
		m, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		models[name] = m
	}

	seen := map[string]bool{}
	// The fault and retry axes expand as a precomputed product so the
	// twelve-deep axis nest does not grow two more levels.
	type faultAxis struct{ faults, retry string }
	faultAxes := make([]faultAxis, 0, len(g.Faults)*len(g.Retries))
	for _, flt := range g.Faults {
		for _, rty := range g.Retries {
			faultAxes = append(faultAxes, faultAxis{flt, rty})
		}
	}
	// The four KV-runtime axes expand the same way, as one precomputed
	// product.
	type kvAxis struct {
		blocks, blockTok int
		prefix           float64
		chunk            int
	}
	kvAxes := make([]kvAxis, 0, len(g.KVBlocks)*len(g.BlockTokens)*len(g.PrefixHits)*len(g.PrefillChunks))
	for _, kb := range g.KVBlocks {
		for _, bt := range g.BlockTokens {
			for _, ph := range g.PrefixHits {
				for _, pc := range g.PrefillChunks {
					kvAxes = append(kvAxes, kvAxis{kb, bt, ph, pc})
				}
			}
		}
	}
	var out []core.Scenario
	var ids []string // out[i]'s identity, kept for the final sort
	for _, mName := range g.Models {
		for _, wl := range g.Workloads {
			if !compatible(models[mName], wl) {
				continue
			}
			n := g.N
			if workload.IsGenerative(wl) {
				n = g.GenN
			}
			for _, plat := range g.Platforms {
				for _, disp := range g.Dispatches {
					for _, rep := range g.Replicas {
						for _, rate := range g.RateMults {
							for _, budget := range g.Budgets {
								for _, accLoss := range g.AccLosses {
									for _, rule := range g.ExitRules {
										for _, mm := range g.Metrics {
											for _, sched := range g.RateSchedules {
												for _, as := range g.Autoscales {
													for _, het := range g.Heteros {
														for _, fr := range faultAxes {
															for _, kv := range kvAxes {
																sc := core.Scenario{
																	Model: mName, Workload: wl,
																	Platform: plat, Dispatch: disp, Replicas: rep,
																	N: n, RateMult: rate,
																	RampBudget: budget, AccLoss: accLoss,
																	ExitRule: rule, Metrics: mm,
																	RateSchedule: sched, Autoscale: as,
																	Hetero: het, Faults: fr.faults, Retry: fr.retry,
																	KVBlocks: kv.blocks, BlockTokens: kv.blockTok,
																	PrefixHit: kv.prefix, PrefillChunk: kv.chunk,
																	Trace: g.Trace, Timeline: g.Timeline,
																	ObsTickMS: g.ObsTickMS,
																}.Normalize()
																id := sc.Identity()
																if seen[id] {
																	continue
																}
																seen[id] = true
																tokens := axisTokens(sc)
																if !only.keep(tokens) || skip.drops(tokens) {
																	continue
																}
																if err := sc.Validate(); err != nil {
																	return nil, err
																}
																sc.Seed = DeriveSeed(g.Seed, id)
																out = append(out, sc)
																ids = append(ids, id)
															}
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Sort(&byIdentity{out, ids})
	return out, nil
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
