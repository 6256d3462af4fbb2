// Package core is the top-level API of the Apparate reproduction: it
// ties together model preparation (§3.1), the serving simulator, and the
// runtime controller (§3.2–3.3) behind the workflow of Figure 6. A user
// registers a model and an accuracy constraint; Apparate configures the
// model with early-exit ramps, deploys it to a serving platform, and
// continually adapts thresholds and ramp positions while results exit
// early and inputs run to completion.
//
// A Scenario names one such deployment and its workload, and
// RunScenario serves the workload twice, vanilla and with Apparate, on
// the same stream:
//
//	res, err := core.RunScenario(core.Scenario{
//		Model: "resnet50", Workload: "video-0", N: 10000, Seed: 1,
//	})
//	fmt.Println(res.Vanilla.P95ms, res.Apparate.P95ms, res.AccDelta)
//
// A generative scenario runs on a GenSystem, which NewGen prepares for
// callers that drive the engine themselves:
//
//	g := core.NewGen(model.T5Large(), exitsim.KindCNNDailyMail, core.Config{})
//	stats := g.Serve(workload.CNNDailyMail(500, 3, 1))
package core

import (
	"repro/internal/exitsim"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// Config configures NewGen: Apparate's accuracy constraint and the
// generative engine's knobs; zero values take the paper's defaults.
type Config struct {
	// AccuracyConstraint is the tolerable accuracy loss relative to the
	// original model (default 0.01, i.e. 1%).
	AccuracyConstraint float64
	// RampBudget is read by nothing: a generative model's single
	// adjustable ramp is its decode head, whatever the budget. It stays
	// because internal/perf's generative composition still sets it.
	RampBudget float64
	// GenSlots overrides the generative engine's continuous-batching slot
	// count (default 8).
	GenSlots int
	// GenFlush overrides the generative engine's pending-token flush
	// threshold (default 8).
	GenFlush int
	// KVBlocks bounds the generative engine's KV-block pool (0 =
	// unbounded: admission waits for a free decode slot alone).
	KVBlocks int
	// BlockTokens is the KV-block granularity in tokens (0 = the engine
	// default of 16; meaningful with KVBlocks > 0).
	BlockTokens int
	// PrefixHitRatio is the generative prefix-cache hit probability in
	// [0,1]; hits skip prompt prefill and are not charged KV blocks for
	// the cached prefix.
	PrefixHitRatio float64
	// PrefillChunkTokens chunks generative prompts longer than this
	// threshold, interleaving prefill with decode on the engine clock
	// (0 = monolithic prefill).
	PrefillChunkTokens int
	// Seed drives generative engine-internal randomness (the gen.prefix
	// stream); only meaningful when PrefixHitRatio > 0.
	Seed uint64
	// Metrics selects the latency/TPT recorder implementation: exact
	// (every sample kept, O(n) memory) or sketch (log-scaled histogram,
	// O(1) memory, ~0.5% percentile error). Default exact.
	Metrics metrics.Mode
}

func (c Config) withDefaults() Config {
	if c.AccuracyConstraint == 0 {
		c.AccuracyConstraint = 0.01
	}
	return c
}

// GenSystem is a prepared generative serving system.
type GenSystem struct {
	Model  *model.Model
	Engine *genserve.Engine
	Policy *genserve.ApparateGen
}

// NewGen prepares a generative model: the decode head doubles as the
// ramp (no training needed, §3.1), a single adjustable ramp protects
// tail TPT, and parallel decoding recovers exit savings (§3.4).
func NewGen(m *model.Model, kind exitsim.Kind, cfg Config) *GenSystem {
	cfg = cfg.withDefaults()
	profile := exitsim.ProfileFor(m, kind)
	eng := genserve.NewEngine(m, profile)
	eng.Metrics = cfg.Metrics
	if cfg.GenSlots > 0 {
		eng.MaxConcurrent = cfg.GenSlots
	}
	if cfg.GenFlush > 0 {
		eng.FlushCount = cfg.GenFlush
	}
	eng.KVBlocks = cfg.KVBlocks
	eng.BlockTokens = cfg.BlockTokens
	eng.PrefixHitRatio = cfg.PrefixHitRatio
	eng.PrefillChunkTokens = cfg.PrefillChunkTokens
	eng.Seed = cfg.Seed
	return &GenSystem{
		Model:  m,
		Engine: eng,
		Policy: genserve.NewApparateGen(m, profile, cfg.AccuracyConstraint),
	}
}

// Serve runs the generative workload under Apparate's token exiting.
func (g *GenSystem) Serve(stream *workload.GenStream) *genserve.Stats {
	return g.Engine.Run(stream, g.Policy)
}

// ServeVanilla runs the workload without exits, for comparison.
func (g *GenSystem) ServeVanilla(stream *workload.GenStream) *genserve.Stats {
	return g.Engine.Run(stream, genserve.VanillaGen{})
}
