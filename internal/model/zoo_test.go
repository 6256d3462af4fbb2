package model

import (
	"math"
	"reflect"
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTable5Latencies(t *testing.T) {
	// Table 5 bs=1 latencies and default SLOs.
	cases := []struct {
		name    string
		latency float64
		slo     float64
	}{
		{"resnet18", 6.5, 13.0},
		{"resnet50", 16.4, 32.8},
		{"resnet101", 33.3, 66.6},
		{"vgg11", 3.3, 10.0},
		{"vgg13", 3.8, 10.0},
		{"vgg16", 4.5, 10.0},
		{"distilbert-base", 15.5, 31.0},
		{"bert-base", 29.4, 58.8},
		{"bert-large", 63.2, 126.4},
		{"gpt2-medium", 103.0, 206.0},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Latency(1); math.Abs(got-c.latency) > 1e-9 {
			t.Errorf("%s Latency(1) = %v, want %v", c.name, got, c.latency)
		}
		if got := m.SLO(); math.Abs(got-c.slo) > 1e-9 {
			t.Errorf("%s SLO = %v, want %v", c.name, got, c.slo)
		}
	}
}

func TestLatencyMonotoneInBatch(t *testing.T) {
	for _, m := range All() {
		prev := 0.0
		for b := 1; b <= 32; b++ {
			l := m.Latency(b)
			if l <= prev {
				t.Errorf("%s: Latency(%d)=%v not increasing", m.Name, b, l)
			}
			prev = l
		}
		// Sub-linear: serving bs=16 must be cheaper than 16 sequential.
		if m.Latency(16) >= 16*m.Latency(1) {
			t.Errorf("%s: batching brings no amortization", m.Name)
		}
	}
}

func TestLatencyPanicsOnZeroBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Latency(0) did not panic")
		}
	}()
	ResNet50().Latency(0)
}

func TestResNetRampsOnlyAtBlockBoundaries(t *testing.T) {
	m := ResNet50()
	for _, s := range m.FeasibleRamps() {
		n := m.Graph.Nodes[s.NodeID]
		if n.Kind == OpConv && n.Block >= 0 {
			t.Errorf("resnet50 feasible ramp at inner conv node %d", s.NodeID)
		}
	}
	// One Add per block should be feasible (except possibly the last,
	// excluded by the 0.97 depth cutoff).
	if n := len(m.FeasibleRamps()); n < m.NumBlocks-2 {
		t.Errorf("resnet50 has %d feasible ramps, want >= %d", n, m.NumBlocks-2)
	}
}

func TestVGGRampsAtMostLayers(t *testing.T) {
	m := VGG13()
	// Chained design: every conv layer (and early FCs) should be feasible.
	n := len(m.FeasibleRamps())
	if n < 10 {
		t.Errorf("vgg13 has only %d feasible ramps", n)
	}
}

func TestBERTRampsAtMergePoints(t *testing.T) {
	m := BERTBase()
	for _, s := range m.FeasibleRamps() {
		kind := m.Graph.Nodes[s.NodeID].Kind
		if kind == OpAttention || kind == OpFFN {
			t.Errorf("bert-base feasible ramp at non-merge node %d (%v)", s.NodeID, kind)
		}
	}
}

func TestFeasibleFractionInPaperRange(t *testing.T) {
	// Paper: 9.2–68.4% of layers have ramps across the corpus. Allow a
	// modest margin for graph-granularity differences.
	for _, m := range ClassificationModels() {
		f := m.FeasibleFraction()
		if f < 0.05 || f > 0.75 {
			t.Errorf("%s feasible fraction %.3f outside [0.05, 0.75]", m.Name, f)
		}
	}
}

func TestFeasibleRampsSortedAndInRange(t *testing.T) {
	for _, m := range All() {
		sites := m.FeasibleRamps()
		prev := -1.0
		for _, s := range sites {
			if s.Frac <= prev {
				t.Errorf("%s: ramp sites not strictly ordered by depth", m.Name)
			}
			if s.Frac <= 0 || s.Frac > 0.97 {
				t.Errorf("%s: ramp site frac %v out of (0, 0.97]", m.Name, s.Frac)
			}
			prev = s.Frac
		}
	}
}

func TestGenerativeFlag(t *testing.T) {
	for _, m := range All() {
		wantGen := m.Family == FamilyT5 || m.Family == FamilyLlama
		if m.Generative != wantGen {
			t.Errorf("%s Generative = %v, want %v", m.Name, m.Generative, wantGen)
		}
	}
}

func TestQuantizedFasterThanBase(t *testing.T) {
	if QuantizedBERTBase().Latency(1) >= BERTBase().Latency(1) {
		t.Error("int8 bert-base not faster than fp32")
	}
	if QuantizedBERTLarge().Latency(1) >= BERTLarge().Latency(1) {
		t.Error("int8 bert-large not faster than fp32")
	}
}

// TestByNameMatchesAll pins the zoo table: looking a model up by the
// name its constructor sets builds the same model All builds.
func TestByNameMatchesAll(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("ByName(%q) differs from the All() instance", m.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("alexnet"); err == nil {
		t.Fatal("ByName accepted an unknown model")
	}
}

func TestPrefixLatencyScalesWithBatch(t *testing.T) {
	m := BERTBase()
	sites := m.FeasibleRamps()
	mid := sites[len(sites)/2]
	l1 := m.PrefixLatency(mid.NodeID, 1)
	l8 := m.PrefixLatency(mid.NodeID, 8)
	if l8 <= l1 {
		t.Error("prefix latency does not grow with batch size")
	}
	ratio := l8 / l1
	want := m.Latency(8) / m.Latency(1)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("prefix latency batch scaling %v != model scaling %v", ratio, want)
	}
}

func TestModelSizesOrdered(t *testing.T) {
	// Larger family members must be slower (paper: wins grow with size).
	order := [][2]string{
		{"resnet18", "resnet50"}, {"resnet50", "resnet101"},
		{"vgg11", "vgg13"}, {"vgg13", "vgg16"},
		{"distilbert-base", "bert-base"}, {"bert-base", "bert-large"},
		{"bert-large", "gpt2-medium"},
		{"t5-large", "llama2-7b"}, {"llama2-7b", "llama2-13b"},
	}
	for _, pair := range order {
		a, _ := ByName(pair[0])
		b, _ := ByName(pair[1])
		if a.Latency(1) >= b.Latency(1) {
			t.Errorf("%s (%.1fms) not faster than %s (%.1fms)",
				pair[0], a.Latency(1), pair[1], b.Latency(1))
		}
	}
}

func TestBlockWeightsProperties(t *testing.T) {
	for _, decay := range []float64{0, 0.5, 1.2} {
		w := blockWeights(10, decay)
		sum := 0.0
		for i, v := range w {
			sum += v
			if v <= 0 {
				t.Errorf("decay %v: weight[%d] = %v <= 0", decay, i, v)
			}
			if i > 0 && decay > 0 && v >= w[i-1] {
				t.Errorf("decay %v: weights not decreasing", decay)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("decay %v: weights sum to %v", decay, sum)
		}
	}
}
