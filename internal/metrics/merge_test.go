package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Shard-merge round-trip: the cluster simulator records latencies into
// per-replica recorders and folds them with Merge, so merging shards
// must be equivalent to recording the union stream directly — exactly
// for Dist (same sample multiset), and bin-exactly for Sketch (merge
// adds counts, so percentiles are identical, and mean differs only by
// float summation order).

// shardSamples draws a lognormal-ish latency stream and deals it
// round-robin into k shards.
func shardSamples(n, k int, seed uint64) (all []float64, shards [][]float64) {
	r := rng.New(seed)
	shards = make([][]float64, k)
	for i := 0; i < n; i++ {
		v := math.Exp(r.Norm()*0.8+2) + r.Float64()
		all = append(all, v)
		shards[i%k] = append(shards[i%k], v)
	}
	return all, shards
}

func recordAll(rec Recorder, vs []float64) {
	for _, v := range vs {
		rec.Add(v)
	}
}

var mergeProbes = []float64{0, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100}

func TestDistShardMergeRoundTrip(t *testing.T) {
	for _, k := range []int{2, 4, 7} {
		all, shards := shardSamples(10000, k, 77)
		union := NewDist(0)
		recordAll(union, all)
		merged := NewDist(0)
		for _, sh := range shards {
			d := NewDist(0)
			recordAll(d, sh)
			// Query some shards before merging so both sorted and
			// unsorted sample slices feed the merge path.
			if len(sh) > 0 && k == 4 {
				d.Median()
			}
			merged.Merge(d)
		}
		if merged.Len() != union.Len() {
			t.Fatalf("k=%d: merged %d samples, union %d", k, merged.Len(), union.Len())
		}
		for _, p := range mergeProbes {
			if got, want := merged.Percentile(p), union.Percentile(p); got != want {
				t.Fatalf("k=%d: p%v mismatch: merged %v, union %v", k, p, got, want)
			}
		}
		if got, want := merged.Mean(), union.Mean(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d: mean mismatch: merged %v, union %v", k, got, want)
		}
		if merged.Min() != union.Min() || merged.Max() != union.Max() {
			t.Fatalf("k=%d: min/max mismatch", k)
		}
	}
}

func TestSketchShardMergeRoundTrip(t *testing.T) {
	for _, k := range []int{2, 4, 7} {
		all, shards := shardSamples(10000, k, 78)
		union := NewSketch()
		recordAll(union, all)
		merged := NewSketch()
		for _, sh := range shards {
			s := NewSketch()
			recordAll(s, sh)
			merged.Merge(s)
		}
		if merged.Len() != union.Len() {
			t.Fatalf("k=%d: merged %d samples, union %d", k, merged.Len(), union.Len())
		}
		// Merge is count addition per bin, so order statistics are
		// bit-identical, not merely within sketch error.
		for _, p := range mergeProbes {
			if got, want := merged.Percentile(p), union.Percentile(p); got != want {
				t.Fatalf("k=%d: p%v mismatch: merged %v, union %v", k, p, got, want)
			}
		}
		if merged.Min() != union.Min() || merged.Max() != union.Max() {
			t.Fatalf("k=%d: min/max mismatch", k)
		}
		if got, want := merged.Mean(), union.Mean(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d: mean mismatch: merged %v, union %v", k, got, want)
		}
	}
}

// TestSketchMergeTracksExact ties the two implementations together: a
// merged sketch's percentiles stay within the sketch's error bound of
// the exact merged distribution.
func TestSketchMergeTracksExact(t *testing.T) {
	all, shards := shardSamples(20000, 4, 79)
	exact := NewDist(0)
	recordAll(exact, all)
	merged := NewSketch()
	for _, sh := range shards {
		s := NewSketch()
		recordAll(s, sh)
		merged.Merge(s)
	}
	for _, p := range []float64{25, 50, 95, 99} {
		got, want := merged.Percentile(p), exact.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Fatalf("p%v: sketch %v vs exact %v (rel err %v > 1%%)", p, got, want, rel)
		}
	}
}
