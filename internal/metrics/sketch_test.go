package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// relErr is the sketch-vs-exact equivalence budget: 1% relative error at
// the quantiles the paper's summaries report.
const relErr = 0.01

// checkEquivalence feeds identical samples to an exact Dist and a Sketch
// and asserts p50/p95/p99 agree within the budget.
func checkEquivalence(t *testing.T, name string, samples []float64) {
	t.Helper()
	d := NewDist(len(samples))
	s := NewSketch()
	for _, v := range samples {
		d.Add(v)
		s.Add(v)
	}
	for _, p := range []float64{50, 95, 99} {
		exact := d.Percentile(p)
		got := s.Percentile(p)
		if exact == 0 {
			continue
		}
		if re := math.Abs(got-exact) / math.Abs(exact); re > relErr {
			t.Errorf("%s p%g: sketch %v vs exact %v (rel err %.4f > %v)",
				name, p, got, exact, re, relErr)
		}
	}
	if s.Len() != d.Len() {
		t.Errorf("%s: sketch count %d != exact %d", name, s.Len(), d.Len())
	}
	if s.Min() != d.Min() || s.Max() != d.Max() {
		t.Errorf("%s: sketch min/max not exact: %v/%v vs %v/%v",
			name, s.Min(), s.Max(), d.Min(), d.Max())
	}
	if me, mg := d.Mean(), s.Mean(); math.Abs(mg-me) > 1e-9*math.Abs(me) {
		t.Errorf("%s: sketch mean %v != exact %v", name, mg, me)
	}
}

// TestSketchEquivalence is the property test behind the streaming
// pipeline's accuracy claim: on uniform, lognormal, and bimodal latency
// shapes, sketch quantiles sit within 1% of the exact distribution.
func TestSketchEquivalence(t *testing.T) {
	const n = 20000
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		uniform := make([]float64, n)
		lognormal := make([]float64, n)
		bimodal := make([]float64, n)
		for i := 0; i < n; i++ {
			uniform[i] = 5 + 95*r.Float64() // 5..100ms
			lognormal[i] = 10 * math.Exp(0.6*r.Norm())
			// Bimodal: fast exits around 4ms, full passes around 40ms.
			if r.Bool(0.6) {
				bimodal[i] = 4 + r.Norm()*0.4
			} else {
				bimodal[i] = 40 + r.Norm()*4
			}
			if bimodal[i] < 0.1 {
				bimodal[i] = 0.1
			}
		}
		checkEquivalence(t, "uniform", uniform)
		checkEquivalence(t, "lognormal", lognormal)
		checkEquivalence(t, "bimodal", bimodal)
	}
}

func TestSketchInsertionOrderIrrelevant(t *testing.T) {
	r := rng.New(9)
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Exp(2 * r.Norm())
	}
	a, b := NewSketch(), NewSketch()
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	for _, p := range []float64{0, 25, 50, 95, 99, 100} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%g depends on insertion order: %v vs %v", p, a.Percentile(p), b.Percentile(p))
		}
	}
}

func TestSketchMerge(t *testing.T) {
	r := rng.New(11)
	whole, a, b := NewSketch(), NewSketch(), NewSketch()
	for i := 0; i < 4000; i++ {
		v := 1 + 50*r.Float64()
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Len() != whole.Len() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged sketch counts/extremes differ from whole")
	}
	for _, p := range []float64{25, 50, 95, 99} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("merged p%g %v != whole %v", p, a.Percentile(p), whole.Percentile(p))
		}
	}
}

func TestSketchUnderflowAndEdges(t *testing.T) {
	s := NewSketch()
	s.Add(0)
	s.Add(1e-9)
	s.Add(5)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Min() != 0 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("p0 = %v, want exact min", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want exact max", got)
	}
}

func TestSketchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile of empty sketch did not panic")
		}
	}()
	NewSketch().Percentile(50)
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{{"", ModeExact}, {"exact", ModeExact}, {"sketch", ModeSketch}} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseMode("histogram"); err == nil {
		t.Fatal("ParseMode accepted unknown mode")
	}
	if ModeExact.String() != "exact" || ModeSketch.String() != "sketch" {
		t.Fatal("bad mode strings")
	}
}

func TestNewRecorderModes(t *testing.T) {
	if _, ok := NewRecorder(ModeExact, 8).(*Dist); !ok {
		t.Fatal("ModeExact did not produce a Dist")
	}
	if _, ok := NewRecorder(ModeSketch, 8).(*Sketch); !ok {
		t.Fatal("ModeSketch did not produce a Sketch")
	}
}

func TestDistMerge(t *testing.T) {
	a, b := NewDist(4), NewDist(4)
	a.AddAll([]float64{1, 5, 3})
	b.AddAll([]float64{2, 4})
	a.Merge(b)
	if a.Len() != 5 || a.Median() != 3 || a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("merged dist wrong: len=%d median=%v", a.Len(), a.Median())
	}
}

func TestMergeModeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-mode merge did not panic")
		}
	}()
	NewDist(1).Merge(NewSketch())
}

// BenchmarkSketchPercentile times the sketch's two quantile queries on
// the cluster runtime, in ns/op. hedge-p95: the hedge deadline's p95 on
// ~3,000 log-uniform latencies of 1–100 ms, one Add per query as
// completions and first dispatches interleave. window-p99: autoscale's
// latency window, a Reset, 300 Adds and one p99.
func BenchmarkSketchPercentile(b *testing.B) {
	vals := logUniform(rng.New(1), 3000, 1, 100)
	b.Run("hedge-p95", func(b *testing.B) {
		s := sketchOf(vals)
		i := 0
		var sink float64
		for b.Loop() {
			s.Add(vals[i])
			sink += s.Percentile(95)
			i = (i + 1) % len(vals)
		}
		_ = sink
	})
	b.Run("window-p99", func(b *testing.B) {
		s := NewSketch()
		var sink float64
		for b.Loop() {
			s.Reset()
			for _, v := range vals[:300] {
				s.Add(v)
			}
			sink += s.Percentile(99)
		}
		_ = sink
	})
}
