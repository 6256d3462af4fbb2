package metrics

import "testing"

// These tests pin Recorder edge-case behavior the obs timeline sampler
// depends on: it creates a fresh recorder per window, merges shards,
// and summarizes windows that may hold a single completion.

// stats is every statistic a Recorder answers, read through its
// methods, so the tests can compare or bound them all at once.
type stats struct {
	Count                                 int
	Mean, P25, Median, P95, P99, Min, Max float64
}

// statsOf reads every statistic of a non-empty recorder.
func statsOf(r Recorder) stats {
	return stats{
		Count:  r.Len(),
		Mean:   r.Mean(),
		P25:    r.Percentile(25),
		Median: r.Median(),
		P95:    r.Percentile(95),
		P99:    r.Percentile(99),
		Min:    r.Min(),
		Max:    r.Max(),
	}
}

// TestMergeEmptyOperand checks merging an empty recorder is a no-op for
// both implementations — stats, count, and percentiles are unchanged.
func TestMergeEmptyOperand(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			r := NewRecorder(mode, 4)
			for _, v := range []float64{5, 10, 20} {
				r.Add(v)
			}
			before := statsOf(r)
			r.Merge(NewRecorder(mode, 0))
			after := statsOf(r)
			if before != after {
				t.Fatalf("merging an empty operand changed the summary: %+v vs %+v", before, after)
			}
			if r.Len() != 3 {
				t.Fatalf("Len = %d after empty merge, want 3", r.Len())
			}
		})
	}
}

// TestMergeIntoEmpty checks the mirror case: an empty recorder absorbs
// a populated operand completely, including min/max.
func TestMergeIntoEmpty(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			src := NewRecorder(mode, 4)
			for _, v := range []float64{5, 10, 20} {
				src.Add(v)
			}
			dst := NewRecorder(mode, 0)
			dst.Merge(src)
			if dst.Len() != 3 {
				t.Fatalf("Len = %d after merge into empty, want 3", dst.Len())
			}
			s := statsOf(dst)
			// The sketch answers within ~0.5% relative error; exact is exact.
			if s.Min > 5.03 || s.Min < 4.97 || s.Max > 20.1 || s.Max < 19.9 {
				t.Fatalf("merge into empty lost min/max: %+v", s)
			}
		})
	}
}

// TestSummarizeSingleSample checks a one-sample window summarizes with
// every percentile equal to that sample.
func TestSummarizeSingleSample(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			r := NewRecorder(mode, 1)
			r.Add(42)
			s := statsOf(r)
			if s.Count != 1 {
				t.Fatalf("Count = %d, want 1", s.Count)
			}
			for name, got := range map[string]float64{
				"Mean": s.Mean, "P25": s.P25, "Median": s.Median,
				"P95": s.P95, "P99": s.P99, "Min": s.Min, "Max": s.Max,
			} {
				if got < 41.8 || got > 42.2 {
					t.Errorf("%s = %v, want ~42", name, got)
				}
			}
		})
	}
}

// TestPercentileEmptyPanicsBothModes pins the contract the timeline
// guards against with its winDone counter: querying an empty recorder
// panics rather than returning a silent zero, in both modes.
func TestPercentileEmptyPanicsBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Percentile on an empty recorder did not panic")
				}
			}()
			NewRecorder(mode, 0).Percentile(99)
		})
	}
}
