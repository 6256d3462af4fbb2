package repro

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
)

// millionScenario is the streaming-pipeline showcase: a 1,000,000-request
// video scenario in sketch mode. Before the streaming refactor the
// pipeline materialized the trace and every per-request result twice
// (vanilla + Apparate) — several hundred MB live for 1M requests; the
// streaming pipeline holds the queue, the handlers, and two fixed-size
// sketches regardless of trace length. The time-varying rate schedule
// extends the bound to scheduled arrivals: the scheduled source buffers
// one second of arrivals at a time, so load dynamics add O(peak
// per-second rate), not O(n).
var millionScenario = core.Scenario{
	Model: "resnet18", Workload: "video-0",
	N: 1_000_000, Seed: 1, Metrics: "sketch",
	RateSchedule: "square:60/0.5/2.5",
}

// memGuardScenario scales the guard scenario's request count through
// APPARATE_MEM_N, so CI can push the same bounded-memory claim well
// past 1M requests (the Makefile's mem-smoke runs 10M) without slowing
// the default. The memory bound must hold at ANY n — that is the whole
// claim — so the guard's heap limit below never scales with it.
func memGuardScenario(tb testing.TB) core.Scenario {
	sc := millionScenario
	if env := os.Getenv("APPARATE_MEM_N"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			tb.Fatalf("APPARATE_MEM_N=%q: want a positive integer", env)
		}
		sc.N = n
	}
	return sc
}

// BenchmarkStreamingMillion runs the 1M-request scenario end to end.
// Allocation per request stays flat with trace length. BENCH_stream.json
// is a static before/after record at 100k requests; nothing
// regenerates it.
func BenchmarkStreamingMillion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunScenario(millionScenario)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("streaming 1M: p50 %.2f->%.2fms, p99 %.2f->%.2fms, acc-loss %.4f\n",
				res.Vanilla.P50ms, res.Apparate.P50ms,
				res.Vanilla.P99ms, res.Apparate.P99ms, res.AccDelta)
		}
	}
}

// memGuardLimit is the guards' live-heap ceiling. A materialized
// pipeline needs >400 MB live for the 1M-request scenario (trace + two
// result slices + two latency slices), and a buffered tracer ~70 bytes
// per event; the streaming pipeline's live heap is O(queue + handlers +
// sketches). 128 MiB leaves generous headroom over the observed ~10 MB
// peak while still catching any reintroduced O(n) buffer. It must never
// scale with APPARATE_MEM_N: the bound holding at any n is the claim.
const memGuardLimit = 128 << 20

// peakHeapDuring runs f while sampling the live heap every 10ms and
// returns the peak it saw.
func peakHeapDuring(f func()) uint64 {
	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	f()
	close(stop)
	return <-peakCh
}

// TestStreamingMillionBoundedMemory is the CI memory-guard smoke test
// (make mem-smoke): it runs the 1M-request sketch scenario while
// sampling the live heap and fails if the peak grows anywhere near what
// a materialized trace would need. The job exports GOMEMLIMIT=256MiB as
// a second line of defense. Gated behind APPARATE_MEM_GUARD so the
// regular `go test ./...` tier stays fast.
func TestStreamingMillionBoundedMemory(t *testing.T) {
	if os.Getenv("APPARATE_MEM_GUARD") == "" {
		t.Skip("set APPARATE_MEM_GUARD=1 to run the 1M-request memory guard")
	}
	sc := memGuardScenario(t)
	var res *core.Result
	var err error
	start := time.Now()
	peak := peakHeapDuring(func() { res, err = core.RunScenario(sc) })
	dur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != sc.N {
		t.Fatalf("served %d requests, want %d", res.Requests, sc.N)
	}
	t.Logf("%d-request sketch scenario: %.1fs, peak live heap %.1f MiB", sc.N, dur.Seconds(), float64(peak)/(1<<20))
	if peak > memGuardLimit {
		t.Fatalf("peak live heap %d bytes exceeds %d: the pipeline is materializing per-request state again", peak, memGuardLimit)
	}
}

// byteCounter is an io.Writer that counts and discards: the traced
// guard's JSONL runs to gigabytes at mem-smoke's 10M requests, so it
// never touches a disk.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestStreamingTracedBoundedMemory is the traced twin of the memory
// guard (make mem-smoke): the same scenario with the lifecycle trace
// and the gauge timeline on, streamed through core.RunScenarioTo, must
// hold the same live-heap ceiling — a traced run keeps no trace in
// memory. A buffered tracer fails it at a few hundred thousand requests.
func TestStreamingTracedBoundedMemory(t *testing.T) {
	if os.Getenv("APPARATE_MEM_GUARD") == "" {
		t.Skip("set APPARATE_MEM_GUARD=1 to run the traced memory guard")
	}
	sc := memGuardScenario(t)
	sc.Trace, sc.Timeline = true, true
	var traceW, timelineW byteCounter
	var res *core.Result
	var od *core.ObsData
	var err error
	start := time.Now()
	peak := peakHeapDuring(func() { res, od, err = core.RunScenarioTo(sc, &traceW, &timelineW) })
	dur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != sc.N {
		t.Fatalf("served %d requests, want %d", res.Requests, sc.N)
	}
	if traceW.n == 0 || timelineW.n == 0 || od.Trace.Len() < sc.N {
		t.Fatalf("traced run streamed %d trace bytes (%d events) and %d timeline bytes; want both non-empty and an event per request",
			traceW.n, od.Trace.Len(), timelineW.n)
	}
	t.Logf("%d-request traced sketch scenario: %.1fs, %d events (%.1f MiB JSONL), %d timeline rows, peak live heap %.1f MiB",
		sc.N, dur.Seconds(), od.Trace.Len(), float64(traceW.n)/(1<<20), od.Timeline.Len(), float64(peak)/(1<<20))
	if peak > memGuardLimit {
		t.Fatalf("peak live heap %d bytes exceeds %d: the traced run is buffering its trace again", peak, memGuardLimit)
	}
}
