package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPercentileKnownValues(t *testing.T) {
	d := NewDist(0)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {95, 95.05},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	d := NewDist(1)
	d.Add(42)
	for _, p := range []float64{0, 50, 100} {
		if got := d.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty distribution")
		}
	}()
	NewDist(0).Percentile(50)
}

// TestPercentileOutOfRangePanics checks that both recorders reject a p
// outside [0, 100], NaN included, with the documented panic.
func TestPercentileOutOfRangePanics(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		for _, p := range []float64{-1, 101, math.NaN()} {
			t.Run(fmt.Sprintf("%s_%v", mode, p), func(t *testing.T) {
				r := NewRecorder(mode, 1)
				r.Add(1)
				defer func() {
					want := fmt.Sprintf("metrics: percentile %v out of [0,100]", p)
					if msg := recover(); msg != want {
						t.Fatalf("Percentile(%v) recovered %v, want panic %q", p, msg, want)
					}
				}()
				r.Percentile(p)
			})
		}
	}
}

func TestPercentileMonotone(t *testing.T) {
	// Property: percentiles are non-decreasing in p for any sample set.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		d := NewDist(0)
		n := r.Intn(200) + 1
		for i := 0; i < n; i++ {
			d.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileInsensitiveToInsertionOrder(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(100) + 2
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		d1 := NewDist(n)
		d1.AddAll(vals)
		shuffled := make([]float64, n)
		copy(shuffled, vals)
		perm := r.Perm(n)
		for i, j := range perm {
			shuffled[i] = vals[j]
		}
		d2 := NewDist(n)
		d2.AddAll(shuffled)
		for _, p := range []float64{25, 50, 95} {
			if d1.Percentile(p) != d2.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	d := NewDist(0)
	d.AddAll([]float64{3, 1, 2})
	if d.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", d.Min(), d.Max())
	}
}

func TestAddAfterQuery(t *testing.T) {
	d := NewDist(0)
	d.Add(5)
	_ = d.Median()
	d.Add(1)
	if got := d.Min(); got != 1 {
		t.Errorf("Min after re-add = %v, want 1", got)
	}
}

// distSink keeps the recorders below on the heap, as in real use.
var distSink *Dist

// TestDistCapacityHintUsed pins that the capacity hint holds a streaming
// recorder's adds: filling a NewDist(n) with n samples and querying it
// allocates nothing beyond the constructor.
func TestDistCapacityHintUsed(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	r := rng.New(3)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	ctor := testing.AllocsPerRun(10, func() { distSink = NewDist(n) })
	full := testing.AllocsPerRun(10, func() {
		distSink = NewDist(n)
		for _, v := range vals {
			distSink.Add(v)
		}
		distSink.Percentile(99)
	})
	if full != ctor {
		t.Fatalf("NewDist(%d) + %d adds + a query allocated %v times, the constructor alone %v", n, n, full, ctor)
	}
}

func TestSummarize(t *testing.T) {
	d := NewDist(0)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := statsOf(d)
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("Summary basics wrong: %+v", s)
	}
	if math.Abs(s.Median-50.5) > 1e-9 || math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("Summary center wrong: %+v", s)
	}
	if s.P25 >= s.Median || s.Median >= s.P95 || s.P95 >= s.P99 {
		t.Errorf("Summary quantiles not ordered: %+v", s)
	}
}

func TestWinPercent(t *testing.T) {
	if got := WinPercent(100, 60); got != 40 {
		t.Errorf("WinPercent(100,60) = %v, want 40", got)
	}
	if got := WinPercent(100, 120); got != -20 {
		t.Errorf("WinPercent(100,120) = %v, want -20", got)
	}
	if got := WinPercent(0, 5); got != 0 {
		t.Errorf("WinPercent(0,5) = %v, want 0", got)
	}
	if got := WinPercent(5, 0); got != 0 {
		t.Errorf("WinPercent(5,0) = %v, want 0", got)
	}
}

func TestAccuracyWindowBasics(t *testing.T) {
	w := NewAccuracyWindow(4)
	if w.Accuracy() != 1.0 {
		t.Errorf("empty window accuracy = %v, want 1", w.Accuracy())
	}
	w.Observe(true)
	w.Observe(false)
	if got := w.Accuracy(); got != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", got)
	}
	if w.Full() {
		t.Error("window reported full with 2/4 samples")
	}
	w.Observe(true)
	w.Observe(true)
	if !w.Full() {
		t.Error("window not full with 4/4 samples")
	}
	if got := w.Accuracy(); got != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", got)
	}
}

func TestAccuracyWindowEviction(t *testing.T) {
	w := NewAccuracyWindow(2)
	w.Observe(false)
	w.Observe(false)
	w.Observe(true) // evicts one false
	w.Observe(true) // evicts the other
	if got := w.Accuracy(); got != 1.0 {
		t.Errorf("accuracy after eviction = %v, want 1", got)
	}
}

func TestAccuracyWindowMatchesNaive(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		size := r.Intn(16) + 1
		w := NewAccuracyWindow(size)
		var history []bool
		for i := 0; i < 100; i++ {
			v := r.Bool(0.7)
			w.Observe(v)
			history = append(history, v)
			start := len(history) - size
			if start < 0 {
				start = 0
			}
			correct := 0
			for _, h := range history[start:] {
				if h {
					correct++
				}
			}
			want := float64(correct) / float64(len(history)-start)
			if math.Abs(w.Accuracy()-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyWindowReset(t *testing.T) {
	w := NewAccuracyWindow(3)
	w.Observe(false)
	w.Reset()
	if w.Accuracy() != 1.0 || w.Full() {
		t.Error("Reset did not clear the window")
	}
}

func TestAccuracyWindowSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAccuracyWindow(0) did not panic")
		}
	}()
	NewAccuracyWindow(0)
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Mean() != 0 {
		t.Errorf("empty Counter mean = %v, want 0", c.Mean())
	}
	c.Add(2)
	c.Add(4)
	if c.Mean() != 3 || c.Count != 2 || c.Sum != 6 {
		t.Errorf("Counter state wrong: %+v", c)
	}
}
