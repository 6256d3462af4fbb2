package sweep

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// refExpand is Grid.Expand as a nest of one loop per axis, before the
// axes table: the reference TestExpandMatchesReference holds Expand to.
// It shares the filter parser and matcher with Expand but computes the
// filter tokens and the pairing rule from its own copies.
func refExpand(g Grid) ([]core.Scenario, error) {
	g = refWithDefaults(g)
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
	// Every workload name is checked before the walk, as every model is
	// looked up, so a misspelt one fails the grid even where no model
	// pairs with it.
	for _, wl := range g.Workloads {
		if err := core.CheckWorkload(wl); err != nil {
			return nil, err
		}
	}
	// So is every replica count, which Normalize would turn from
	// negative into one.
	for _, rep := range g.Replicas {
		if err := core.CheckReplicas(rep); err != nil {
			return nil, err
		}
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
			if !refCompatible(models[mName], wl) {
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
																tokens := refAxisTokens(sc)
																if !only.keep(&tokens) || skip.drops(&tokens) {
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

// refWithDefaults fills every empty axis with the values it sweeps.
func refWithDefaults(g Grid) Grid {
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

// refFilterAxes lists each filterable axis with the scenario's token on
// it. The conditional ones exist only when their knob is set. The order
// is the axes table's, so the indexes parseFilters returns address both.
var refFilterAxes = [...]struct {
	name  string
	token func(sc core.Scenario) (v string, ok bool)
}{
	{"model", func(sc core.Scenario) (string, bool) { return sc.Model, true }},
	{"workload", func(sc core.Scenario) (string, bool) { return sc.Workload, true }},
	{"platform", func(sc core.Scenario) (string, bool) { return sc.Platform, true }},
	{"dispatch", func(sc core.Scenario) (string, bool) { return sc.Dispatch, true }},
	{"replicas", func(sc core.Scenario) (string, bool) { return fmt.Sprintf("%d", sc.Replicas), true }},
	{"rate", func(sc core.Scenario) (string, bool) { return fmt.Sprintf("%g", sc.RateMult), true }},
	{"budget", func(sc core.Scenario) (string, bool) { return fmt.Sprintf("%g", sc.RampBudget), true }},
	{"accloss", func(sc core.Scenario) (string, bool) { return fmt.Sprintf("%g", sc.AccLoss), true }},
	{"rule", func(sc core.Scenario) (string, bool) { return sc.ExitRule, sc.ExitRule != "" }},
	{"metrics", func(sc core.Scenario) (string, bool) { return sc.Metrics, true }},
	{"schedule", func(sc core.Scenario) (string, bool) { return sc.RateSchedule, sc.RateSchedule != "" }},
	{"autoscale", func(sc core.Scenario) (string, bool) { return sc.Autoscale, sc.Autoscale != "" }},
	{"hetero", func(sc core.Scenario) (string, bool) { return sc.Hetero, sc.Hetero != "" }},
	{"faults", func(sc core.Scenario) (string, bool) { return sc.Faults, sc.Faults != "" }},
	{"retry", func(sc core.Scenario) (string, bool) { return sc.Retry, sc.Retry != "" }},
	{"kv", func(sc core.Scenario) (string, bool) { return refSetInt(sc.KVBlocks) }},
	{"blocktok", func(sc core.Scenario) (string, bool) { return refSetInt(sc.BlockTokens) }},
	{"prefixhit", func(sc core.Scenario) (string, bool) {
		if sc.PrefixHit == 0 {
			return "", false
		}
		return fmt.Sprintf("%g", sc.PrefixHit), true
	}},
	{"prefillchunk", func(sc core.Scenario) (string, bool) { return refSetInt(sc.PrefillChunk) }},
}

// refSetInt is a conditional integer axis's token: absent when n is 0.
func refSetInt(n int) (string, bool) {
	if n == 0 {
		return "", false
	}
	return fmt.Sprintf("%d", n), true
}

// refAxisTokens lists a scenario's filterable axis values.
func refAxisTokens(sc core.Scenario) scenarioTokens {
	var t scenarioTokens
	for i := range refFilterAxes {
		t[i].v, t[i].ok = refFilterAxes[i].token(sc)
	}
	return t
}

// refCompatible reports whether the model can serve the workload under
// the paper's corpus pairing.
func refCompatible(m *model.Model, wl string) bool {
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
