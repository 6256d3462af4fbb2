package model

import (
	"fmt"
	"sort"
)

// Family identifies a model architecture family. Placement policies and
// the exit simulator key behavior off the family (e.g., CV latency is
// front-loaded while transformer latency is even across blocks, §3.3).
type Family int

// Model families in the paper's corpus.
const (
	FamilyResNet Family = iota
	FamilyVGG
	FamilyBERT
	FamilyGPT
	FamilyT5
	FamilyLlama
)

// IsCV reports whether the family is a vision family.
func (f Family) IsCV() bool { return f == FamilyResNet || f == FamilyVGG }

// Model is a registered inference model: the graph, its latency profile,
// and the metadata Apparate's preparation and runtime phases need.
type Model struct {
	Name   string
	Family Family
	Graph  *Graph
	// Params is the parameter count (documentation/memory accounting).
	Params int64
	// BaseLatencyMS is the batch-size-1 inference latency: a full forward
	// pass for classification models, or a single decode step for
	// generative models.
	BaseLatencyMS float64
	// BatchBeta controls batch scaling: Latency(b) = Base·(1+Beta·(b−1)).
	// Highly parallel CV models have small Beta; large transformers are
	// closer to linear.
	BatchBeta float64
	// Generative marks auto-regressive decoder models (GPT-2 is used for
	// classification in the paper, so Generative is set only for T5 and
	// Llama).
	Generative bool
	// Quantized marks post-training int8 variants (§4.2).
	Quantized bool
	// NumBlocks is the count of architectural blocks (ResNet blocks,
	// encoder/decoder layers).
	NumBlocks int

	prefix []float64
	cut    []bool
}

// Latency returns the model inference latency in milliseconds for the
// given batch size. batch must be >= 1.
func (m *Model) Latency(batch int) float64 {
	if batch < 1 {
		panic(fmt.Sprintf("model: Latency batch %d < 1", batch))
	}
	return m.BaseLatencyMS * (1 + m.BatchBeta*float64(batch-1))
}

// SLO returns the model's default service-level objective: 2× the bs=1
// latency, floored at 10ms, matching Table 5.
func (m *Model) SLO() float64 {
	slo := 2 * m.BaseLatencyMS
	if slo < 10 {
		slo = 10
	}
	return slo
}

func (m *Model) ensureAnalysis() {
	if m.prefix == nil {
		m.prefix = m.Graph.PrefixFrac()
	}
	if m.cut == nil {
		m.cut = m.Graph.CutVertices()
	}
}

// PrefixFrac returns the fraction of model compute consumed through node
// id, inclusive.
func (m *Model) PrefixFrac(id int) float64 {
	m.ensureAnalysis()
	return m.prefix[id]
}

// PrefixLatency returns the latency in ms from batch start until the
// output of node id is available, for the given batch size.
func (m *Model) PrefixLatency(id, batch int) float64 {
	return m.PrefixFrac(id) * m.Latency(batch)
}

// RampSite is a feasible ramp location: the graph node whose output a
// ramp would consume.
type RampSite struct {
	NodeID int
	// Frac is the fraction of model compute consumed when this site's
	// output is ready (prefix latency fraction).
	Frac float64
	// Block is the architectural block index of the site.
	Block int
	// Quality is the site's intrinsic ramp-capability multiplier
	// (~[0.94, 1.06]): intermediates at some layers summarize the input
	// better than their depth alone suggests, which is what makes ramp
	// *positioning* worth optimizing at runtime (§3.3). Deterministic
	// per (model, node).
	Quality float64
}

// siteQuality derives the deterministic quality multiplier for a node.
func siteQuality(modelName string, nodeID int) float64 {
	h := uint64(nodeID) + 0x9e3779b97f4a7c15
	for _, c := range []byte(modelName) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h>>11) / (1 << 53)
	return 0.94 + 0.12*u
}

// rampFeasibleKinds are operator kinds whose outputs carry the full data
// flow a ramp should see. Pooling/activation outputs are redundant with
// the preceding weight layer; embeddings and heads are excluded.
func rampFeasibleKind(k OpKind) bool {
	switch k {
	case OpConv, OpFC, OpAdd, OpNorm, OpAttention, OpFFN:
		return true
	}
	return false
}

// FeasibleRamps returns the model's candidate ramp sites: cut vertices of
// the graph (so a ramp sees all data flow to that point, Figure 7) with
// weight-carrying kinds, excluding sites so late that exiting there saves
// nothing (prefix fraction > 0.97). For generative models, only decoder
// block boundaries qualify (input tokens must be fully processed, §3.1).
// Sites are returned in increasing depth order.
func (m *Model) FeasibleRamps() []RampSite {
	m.ensureAnalysis()
	var out []RampSite
	for id := range m.Graph.Nodes {
		n := &m.Graph.Nodes[id]
		if !m.cut[id] || !rampFeasibleKind(n.Kind) {
			continue
		}
		frac := m.prefix[id]
		if frac > 0.97 {
			continue
		}
		if m.Generative && n.Kind != OpAdd && n.Kind != OpNorm {
			// Generative ramps sit between transformer blocks only.
			continue
		}
		out = append(out, RampSite{
			NodeID: id, Frac: frac, Block: n.Block,
			Quality: siteQuality(m.Name, id),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frac < out[j].Frac })
	return out
}

// FeasibleFraction reports the share of graph operators that are feasible
// ramp sites; the paper observes 9.2–68.4% across its corpus.
func (m *Model) FeasibleFraction() float64 {
	return float64(len(m.FeasibleRamps())) / float64(m.Graph.Len())
}

// Validate checks the model's graph and metadata.
func (m *Model) Validate() error {
	if err := m.Graph.Validate(); err != nil {
		return fmt.Errorf("model %s: %w", m.Name, err)
	}
	if m.BaseLatencyMS <= 0 {
		return fmt.Errorf("model %s: non-positive base latency", m.Name)
	}
	if m.BatchBeta < 0 || m.BatchBeta > 1 {
		return fmt.Errorf("model %s: batch beta %v out of [0,1]", m.Name, m.BatchBeta)
	}
	if len(m.FeasibleRamps()) == 0 {
		return fmt.Errorf("model %s: no feasible ramp sites", m.Name)
	}
	return nil
}
