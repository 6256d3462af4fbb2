// Package model provides the ONNX-like graph intermediate representation
// that Apparate ingests, the cut-vertex analysis that determines feasible
// ramp positions (§3.1, Figure 7), and a model zoo with per-layer latency
// profiles calibrated to the paper's Table 5.
package model

import (
	"fmt"
)

// OpKind classifies a graph operator. The simulator does not execute
// tensor math; kinds exist so placement policies can reason about model
// structure (e.g., "ramps go between encoder blocks, not inside them").
type OpKind int

// Operator kinds covering the model families in the paper's corpus.
const (
	OpInput OpKind = iota
	OpConv
	OpReLU
	OpPool
	OpFC
	OpAdd // residual addition
	OpNorm
	OpEmbed
	OpAttention
	OpFFN
	OpSoftmax
	OpOutput
)

// Node is one operator in the computation graph.
type Node struct {
	ID   int
	Name string
	Kind OpKind
	// LatFrac is this operator's share of the model's total inference
	// latency at batch size 1. Fractions over the whole graph sum to 1.
	LatFrac float64
	// Block is the index of the architectural block (ResNet block, BERT
	// encoder, decoder layer) this node belongs to, or -1 for stem/head
	// operators outside any block.
	Block int
}

// Graph is a single-source, single-sink directed acyclic graph of
// operators — the shape ONNX exports for the model families used here.
type Graph struct {
	Nodes []Node
	succ  [][]int
	pred  [][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(name string, kind OpKind, latFrac float64, block int) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Kind: kind, LatFrac: latFrac, Block: block})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge adds a directed edge from -> to. It panics on out-of-range IDs,
// which indicate a builder bug.
func (g *Graph) AddEdge(from, to int) {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		panic(fmt.Sprintf("model: edge %d->%d out of range (n=%d)", from, to, len(g.Nodes)))
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
}

// Succ returns the successor IDs of node id.
func (g *Graph) Succ(id int) []int { return g.succ[id] }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// Source returns the unique node without predecessors. Validate must have
// passed for the result to be meaningful.
func (g *Graph) Source() int {
	for i := range g.Nodes {
		if len(g.pred[i]) == 0 {
			return i
		}
	}
	return -1
}

// Sink returns the unique node without successors.
func (g *Graph) Sink() int {
	for i := range g.Nodes {
		if len(g.succ[i]) == 0 {
			return i
		}
	}
	return -1
}

// Validate checks that the graph is a DAG with exactly one source and one
// sink, and that latency fractions sum to ~1. Every node of such a graph
// lies on some source→sink path: following predecessors from it must end
// at the one source, and following successors at the one sink.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("model: empty graph")
	}
	sources, sinks := 0, 0
	for i := range g.Nodes {
		if len(g.pred[i]) == 0 {
			sources++
		}
		if len(g.succ[i]) == 0 {
			sinks++
		}
	}
	if sources != 1 {
		return fmt.Errorf("model: graph has %d sources, want 1", sources)
	}
	if sinks != 1 {
		return fmt.Errorf("model: graph has %d sinks, want 1", sinks)
	}
	if g.TopoOrder() == nil {
		return fmt.Errorf("model: graph contains a cycle")
	}
	total := 0.0
	for i := range g.Nodes {
		if g.Nodes[i].LatFrac < 0 {
			return fmt.Errorf("model: node %d has negative latency fraction", i)
		}
		total += g.Nodes[i].LatFrac
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("model: latency fractions sum to %v, want 1", total)
	}
	return nil
}

// TopoOrder returns a topological ordering of node IDs, or nil if the
// graph has a cycle. Ties are broken by node ID so the order is stable.
func (g *Graph) TopoOrder() []int {
	indeg := make([]int, len(g.Nodes))
	for i := range g.Nodes {
		for range g.pred[i] {
			indeg[i]++
		}
	}
	// Stable Kahn's algorithm: process ready nodes in ID order.
	var order []int
	ready := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		// Pop the smallest ID for determinism.
		minIdx := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[minIdx] {
				minIdx = i
			}
		}
		n := ready[minIdx]
		ready = append(ready[:minIdx], ready[minIdx+1:]...)
		order = append(order, n)
		for _, s := range g.succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil
	}
	return order
}

// reachable marks every node reachable from start along adj (g.succ
// to walk forward, g.pred to walk backward) without passing through the
// node skip; -1 skips nothing, and skipping start marks nothing.
func reachable(adj [][]int, start, skip int) []bool {
	seen := make([]bool, len(adj))
	if start == skip {
		return seen
	}
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range adj[n] {
			if !seen[s] && s != skip {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// CutVertices reports, for every node, whether all source→sink paths pass
// through it — the paper's feasibility condition for ramp placement: "no
// edge can start before a ramp and re-enter the model's computation after
// the ramp" (§3.1). The source and sink are trivially cut vertices.
//
// Complexity is O(V·(V+E)); model graphs here have at most a few hundred
// nodes, so this is well within budget and kept simple on purpose.
func (g *Graph) CutVertices() []bool {
	out := make([]bool, len(g.Nodes))
	src, snk := g.Source(), g.Sink()
	for v := range g.Nodes {
		if v == src || v == snk {
			out[v] = true
			continue
		}
		out[v] = !reachable(g.succ, src, v)[snk]
	}
	return out
}

// PrefixFrac returns, for each node, the cumulative latency fraction of
// all operators that execute no later than it, inclusive. For cut
// vertices this is exactly the fraction of model compute a ramp placed
// immediately after the node would have consumed. Nodes are accumulated
// in topological order; for nodes on parallel branches the value is the
// fraction of work topologically ordered at-or-before the node, which is
// an upper bound — ramp placement only queries cut vertices, where the
// value is exact.
func (g *Graph) PrefixFrac() []float64 {
	order := g.TopoOrder()
	out := make([]float64, len(g.Nodes))
	cum := 0.0
	for _, id := range order {
		cum += g.Nodes[id].LatFrac
		out[id] = cum
	}
	return out
}
