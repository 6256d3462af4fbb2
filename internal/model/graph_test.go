package model

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// chain builds a linear graph of n nodes.
func chain(n int) *Graph {
	g := NewGraph()
	frac := 1.0 / float64(n)
	prev := -1
	for i := 0; i < n; i++ {
		id := g.AddNode("n", OpConv, frac, i)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

// diamond builds src -> {a, b} -> snk.
func diamond() *Graph {
	g := NewGraph()
	src := g.AddNode("src", OpInput, 0.25, -1)
	a := g.AddNode("a", OpConv, 0.25, 0)
	b := g.AddNode("b", OpConv, 0.25, 0)
	snk := g.AddNode("snk", OpOutput, 0.25, -1)
	g.AddEdge(src, a)
	g.AddEdge(src, b)
	g.AddEdge(a, snk)
	g.AddEdge(b, snk)
	return g
}

func TestChainAllCutVertices(t *testing.T) {
	g := chain(5)
	cv := g.CutVertices()
	for i, c := range cv {
		if !c {
			t.Errorf("chain node %d not a cut vertex", i)
		}
	}
}

func TestDiamondBranchesNotCut(t *testing.T) {
	g := diamond()
	cv := g.CutVertices()
	want := []bool{true, false, false, true}
	for i := range want {
		if cv[i] != want[i] {
			t.Errorf("diamond node %d cut = %v, want %v", i, cv[i], want[i])
		}
	}
}

func TestResidualBlockCutVertices(t *testing.T) {
	// input -> conv1 -> conv2 -> add <- input skip; add -> out.
	// The convs are bypassed by the skip, so only input/add/out are cut.
	g := NewGraph()
	in := g.AddNode("in", OpInput, 0.2, -1)
	c1 := g.AddNode("c1", OpConv, 0.2, 0)
	c2 := g.AddNode("c2", OpConv, 0.2, 0)
	add := g.AddNode("add", OpAdd, 0.2, 0)
	out := g.AddNode("out", OpOutput, 0.2, -1)
	g.AddEdge(in, c1)
	g.AddEdge(c1, c2)
	g.AddEdge(c2, add)
	g.AddEdge(in, add)
	g.AddEdge(add, out)
	cv := g.CutVertices()
	want := []bool{true, false, false, true, true}
	for i := range want {
		if cv[i] != want[i] {
			t.Errorf("node %d cut = %v, want %v", i, cv[i], want[i])
		}
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := diamond()
	order := g.TopoOrder()
	if order == nil {
		t.Fatal("TopoOrder returned nil for a DAG")
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for id := range g.Nodes {
		for _, s := range g.Succ(id) {
			if pos[id] >= pos[s] {
				t.Errorf("edge %d->%d violates topo order", id, s)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", OpConv, 0.5, 0)
	b := g.AddNode("b", OpConv, 0.5, 0)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if g.TopoOrder() != nil {
		t.Fatal("TopoOrder did not detect a cycle")
	}
}

func TestValidateRejectsMultipleSinks(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", OpInput, 0.4, -1)
	b := g.AddNode("b", OpConv, 0.3, 0)
	c := g.AddNode("c", OpConv, 0.3, 0)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a graph with two sinks")
	}
}

func TestValidateRejectsBadFractions(t *testing.T) {
	g := chain(4) // fractions sum to 1
	g.Nodes[0].LatFrac = 0.9
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted fractions summing to != 1")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := NewGraph().Validate(); err == nil {
		t.Fatal("Validate accepted an empty graph")
	}
}

func TestPrefixFracChain(t *testing.T) {
	g := chain(4)
	pf := g.PrefixFrac()
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range want {
		if diff := pf[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("prefix[%d] = %v, want %v", i, pf[i], want[i])
		}
	}
}

// countPathsThrough enumerates all source->sink paths in a small DAG and
// reports for each node whether every path includes it — the ground-truth
// definition of the ramp-feasibility condition.
func pathsThroughAll(g *Graph) []bool {
	src, snk := g.Source(), g.Sink()
	onAll := make([]bool, g.Len())
	for i := range onAll {
		onAll[i] = true
	}
	var path []int
	var walk func(n int)
	walk = func(n int) {
		path = append(path, n)
		if n == snk {
			onPath := make([]bool, g.Len())
			for _, p := range path {
				onPath[p] = true
			}
			for i := range onAll {
				if !onPath[i] {
					onAll[i] = false
				}
			}
		} else {
			for _, s := range g.Succ(n) {
				walk(s)
			}
		}
		path = path[:len(path)-1]
	}
	walk(src)
	return onAll
}

// randomLayeredDAG builds a small random single-source single-sink DAG.
func randomLayeredDAG(r *rng.Rand) *Graph {
	g := NewGraph()
	layers := r.Intn(4) + 2
	var prev []int
	src := g.AddNode("src", OpInput, 0, -1)
	prev = []int{src}
	total := 1
	for l := 0; l < layers; l++ {
		width := r.Intn(3) + 1
		var cur []int
		for w := 0; w < width; w++ {
			id := g.AddNode("n", OpConv, 0, l)
			// Connect from at least one previous-layer node.
			from := prev[r.Intn(len(prev))]
			g.AddEdge(from, id)
			// Possibly extra in-edges.
			for _, p := range prev {
				if p != from && r.Bool(0.3) {
					g.AddEdge(p, id)
				}
			}
			cur = append(cur, id)
			total++
		}
		prev = cur
	}
	snk := g.AddNode("snk", OpOutput, 0, -1)
	for _, p := range prev {
		g.AddEdge(p, snk)
	}
	total++
	// Even fractions.
	frac := 1.0 / float64(total)
	for i := range g.Nodes {
		g.Nodes[i].LatFrac = frac
	}
	return g
}

func TestCutVerticesMatchPathEnumeration(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := randomLayeredDAG(r)
		// Some random DAGs may have dangling nodes unreachable to sink;
		// only test graphs that validate.
		if g.Validate() != nil {
			return true
		}
		got := g.CutVertices()
		want := pathsThroughAll(g)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a random graph on 2 to 9 nodes: edges from lower
// to higher IDs at a random density, and now and then an edge back that
// closes a cycle.
func randomGraph(r *rng.Rand) *Graph {
	g := NewGraph()
	n := 2 + r.Intn(8)
	for i := 0; i < n; i++ {
		g.AddNode("n", OpConv, 1/float64(n), -1)
	}
	density := 0.2 + 0.5*r.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(density) {
				g.AddEdge(i, j)
			}
			if r.Bool(0.03) {
				g.AddEdge(j, i)
			}
		}
	}
	return g
}

// TestValidatedGraphsConnectSourceToSink: in every random graph that
// Validate accepts, every node is reachable from the source and reaches
// the sink, though Validate walks neither way. One source, one sink and
// no cycle imply it; a cycle apart from the source→sink paths is the
// case the cycle check rules out.
func TestValidatedGraphsConnectSourceToSink(t *testing.T) {
	const tries = 3000
	accepted := 0
	for seed := uint64(1); seed <= tries; seed++ {
		g := randomGraph(rng.New(seed))
		if g.Validate() != nil {
			continue
		}
		accepted++
		fromSrc, toSink := reachable(g.succ, g.Source(), -1), reachable(g.pred, g.Sink(), -1)
		for i := range g.Nodes {
			if !fromSrc[i] || !toSink[i] {
				t.Fatalf("seed %d: Validate accepts a graph whose node %d is not on a source→sink path (succ %v)", seed, i, g.succ)
			}
		}
	}
	if accepted < tries/20 {
		t.Fatalf("only %d of %d random graphs validate", accepted, tries)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := chain(2)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	g.AddEdge(0, 99)
}
