GO ?= go

.PHONY: build test vet race fuzz bench bench-cluster bench-faults bench-obs bench-stream bench-gen bench-all sweep-smoke mem-smoke mem-soak golden ci

# Stamps the measurement provenance — commit, toolchain, machine — into
# a freshly regenerated BENCH_*.json, so numbers from different epochs
# are never compared without knowing what produced them.
bench_meta = printf '  "commit": "%s",\n  "go": "%s %s/%s",\n  "machine": "%s (%s cpu)",\n' \
	"$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	"$$($(GO) env GOVERSION)" "$$($(GO) env GOOS)" "$$($(GO) env GOARCH)" \
	"$$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)" "$$(nproc)" >> $(1)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the concurrent sweep engine (and the layers
# it drives: the event engine, the cluster runtime, the autoscaled
# path, and the observability sinks sweep workers write in parallel).
race:
	$(GO) test -race ./internal/sweep/... ./internal/serving/... ./internal/autoscale/... ./internal/core/... ./internal/engine/... ./internal/faults/... ./internal/obs/... ./internal/genserve/...

# Fuzz the scenario-spec parsers and the sweep's -only/-skip filter
# parser for 10s per target (go test -fuzz takes one target per run). A
# target fails on a panic, a parsed non-finite number, a canonical form
# that does not parse back to itself, or an accepted filter with an
# unknown axis or a malformed glob; the failing input is saved under the
# package's testdata/fuzz/ and replays in plain go test from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/autoscale
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetry$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpeeds$$' -fuzztime 10s ./internal/serving
	$(GO) test -run '^$$' -fuzz '^FuzzParseFilters$$' -fuzztime 10s ./internal/sweep

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Cluster-scaling benchmark (replicas 1/4/16 at constant per-replica
# load, 100k requests) emitted as BENCH_cluster.json. The historical
# pre-engine per-replica-replay numbers are inlined below so
# regenerating the file preserves the before/after trajectory.
define BENCH_CLUSTER_BEFORE
  "before_engine_refactor": {
    "commit": "a4687a6 (per-replica dispatch replay: O(replicas x trace) work)",
    "machine": "Intel Xeon @ 2.10GHz, go1.24, linux/amd64",
    "results": [
      {"case": "dispatch=round-robin/replicas=1", "iters": 5, "ns_per_op": 21682353, "bytes_per_op": 9770488, "allocs_per_op": 99985},
      {"case": "dispatch=round-robin/replicas=4", "iters": 5, "ns_per_op": 43114198, "bytes_per_op": 10566364, "allocs_per_op": 99901},
      {"case": "dispatch=round-robin/replicas=16", "iters": 5, "ns_per_op": 121495048, "bytes_per_op": 11595276, "allocs_per_op": 99502},
      {"case": "dispatch=least-loaded/replicas=1", "iters": 5, "ns_per_op": 22133416, "bytes_per_op": 9770512, "allocs_per_op": 99988},
      {"case": "dispatch=least-loaded/replicas=4", "iters": 5, "ns_per_op": 45133739, "bytes_per_op": 9879712, "allocs_per_op": 100039},
      {"case": "dispatch=least-loaded/replicas=16", "iters": 5, "ns_per_op": 197858673, "bytes_per_op": 11004793, "allocs_per_op": 100114}
    ]
  },
endef
export BENCH_CLUSTER_BEFORE

# Pre-pooling epoch: the single-pass event engine, but with a closure
# allocated per scheduled event, copy-shifted replica queues, and a
# fresh sketch per observability window — ~1 allocation per request.
define BENCH_CLUSTER_BEFORE_ZERO_ALLOC
  "before_zero_alloc": {
    "commit": "c0cfe3e (closure-per-event engine, copy-shifted queues)",
    "machine": "Intel Xeon @ 2.70GHz, go1.24, linux/amd64",
    "results": [
      {"case": "dispatch=round-robin/replicas=1", "iters": 5, "ns_per_op": 22275084, "bytes_per_op": 9771104, "allocs_per_op": 100056},
      {"case": "dispatch=round-robin/replicas=4", "iters": 5, "ns_per_op": 22862991, "bytes_per_op": 10566688, "allocs_per_op": 100139},
      {"case": "dispatch=round-robin/replicas=16", "iters": 5, "ns_per_op": 30721242, "bytes_per_op": 11594944, "allocs_per_op": 100404},
      {"case": "dispatch=least-loaded/replicas=1", "iters": 5, "ns_per_op": 21617522, "bytes_per_op": 9771104, "allocs_per_op": 100056},
      {"case": "dispatch=least-loaded/replicas=4", "iters": 5, "ns_per_op": 24769247, "bytes_per_op": 9870656, "allocs_per_op": 100076},
      {"case": "dispatch=least-loaded/replicas=16", "iters": 5, "ns_per_op": 34821759, "bytes_per_op": 10965280, "allocs_per_op": 100215}
    ]
  },
endef
export BENCH_CLUSTER_BEFORE_ZERO_ALLOC

bench-cluster:
	$(GO) test -run '^$$' -bench BenchmarkClusterScaling -benchtime 5x . | tee /tmp/bench_cluster.txt
	@printf '{\n  "description": "BenchmarkClusterScaling: serving.RunCluster over 100k requests at constant per-replica load (aggregate rate scales with replicas). Regenerate with make bench-cluster; before_engine_refactor preserves the pre-engine per-replica-replay numbers, before_zero_alloc the pre-pooling closure-per-event numbers.",\n' > BENCH_cluster.json
	@$(call bench_meta,BENCH_cluster.json)
	@echo "$$BENCH_CLUSTER_BEFORE" >> BENCH_cluster.json
	@echo "$$BENCH_CLUSTER_BEFORE_ZERO_ALLOC" >> BENCH_cluster.json
	@awk 'BEGIN { printf("  \"results\": [\n") } \
	  /^BenchmarkClusterScaling\// { sub(/^BenchmarkClusterScaling\//, "", $$1); sub(/-[0-9]+$$/, "", $$1); printf("%s    {\"case\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, $$1, $$2, $$3, $$5, $$7); sep=",\n" } \
	  END { printf("\n  ]\n}\n") }' /tmp/bench_cluster.txt >> BENCH_cluster.json
	@echo "bench-cluster: wrote BENCH_cluster.json"

# Fault-injection overhead benchmark (faults=off vs a full churn +
# delay + loss + retry stack at 1/4/16 replicas, 100k requests)
# emitted as BENCH_faults.json.

# Pre-pooling epoch: per-request arbiter map entries and a closure per
# fault event put the faulty path at ~4 allocations per request.
define BENCH_FAULTS_BEFORE_ZERO_ALLOC
  "before_zero_alloc": {
    "commit": "c0cfe3e (map-based fault arbiter, closure-per-event engine)",
    "machine": "Intel Xeon @ 2.70GHz, go1.24, linux/amd64",
    "results": [
      {"case": "faults=off/replicas=1", "iters": 5, "ns_per_op": 23016014, "bytes_per_op": 9771232, "allocs_per_op": 100057},
      {"case": "faults=off/replicas=4", "iters": 5, "ns_per_op": 25326539, "bytes_per_op": 9870928, "allocs_per_op": 100080},
      {"case": "faults=off/replicas=16", "iters": 5, "ns_per_op": 35800302, "bytes_per_op": 10966128, "allocs_per_op": 100231},
      {"case": "faults=faulty/replicas=1", "iters": 5, "ns_per_op": 58594558, "bytes_per_op": 23550323, "allocs_per_op": 400967},
      {"case": "faults=faulty/replicas=4", "iters": 5, "ns_per_op": 63766901, "bytes_per_op": 23872683, "allocs_per_op": 400690},
      {"case": "faults=faulty/replicas=16", "iters": 5, "ns_per_op": 94661094, "bytes_per_op": 24254846, "allocs_per_op": 400929}
    ]
  },
endef
export BENCH_FAULTS_BEFORE_ZERO_ALLOC

bench-faults:
	$(GO) test -run '^$$' -bench BenchmarkFaultInjection -benchtime 5x . | tee /tmp/bench_faults.txt
	@printf '{\n  "description": "BenchmarkFaultInjection: serving.RunCluster over 100k requests at constant per-replica load, reliable (faults=off) vs mtbf:20000/1000;delaydist=exp:1;loss=0.001 with attempts=3 retries. faults=off should track BenchmarkClusterScaling; the faulty rows bound the per-request cost of a chaos study. Regenerate with make bench-faults; before_zero_alloc preserves the pre-pooling map-arbiter numbers.",\n' > BENCH_faults.json
	@$(call bench_meta,BENCH_faults.json)
	@echo "$$BENCH_FAULTS_BEFORE_ZERO_ALLOC" >> BENCH_faults.json
	@awk 'BEGIN { printf("  \"results\": [\n") } \
	  /^BenchmarkFaultInjection\// { sub(/^BenchmarkFaultInjection\//, "", $$1); sub(/-[0-9]+$$/, "", $$1); printf("%s    {\"case\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, $$1, $$2, $$3, $$5, $$7); sep=",\n" } \
	  END { printf("\n  ]\n}\n") }' /tmp/bench_faults.txt >> BENCH_faults.json
	@echo "bench-faults: wrote BENCH_faults.json"

# Observability overhead benchmark (obs=off vs lifecycle trace vs
# trace+timeline, on both the 100k-request 4-replica cluster and the
# saturated generative-KV engine) emitted as BENCH_obs.json. The
# obs=off row is the zero-cost-when-off gate: it must track
# BENCH_cluster.json's round-robin/replicas=4 row within noise, with
# identical allocs/op; the gen-obs=off row likewise must match
# BENCH_gen.json's kv=48/prefix=0.5/chunk=256 row with zero extra
# allocs.
# Pre-pooling epoch: a fresh sketch per timeline window and a fresh
# QueueDepths slice per tick row put trace+timeline 25k allocs over the
# untraced run.
define BENCH_OBS_BEFORE_ZERO_ALLOC
  "before_zero_alloc": {
    "commit": "c0cfe3e (per-window sketch and per-tick gauge allocations)",
    "machine": "Intel Xeon @ 2.70GHz, go1.24, linux/amd64",
    "results": [
      {"case": "obs=off/replicas=4", "iters": 5, "ns_per_op": 22680384, "bytes_per_op": 10567072, "allocs_per_op": 100143},
      {"case": "obs=trace/replicas=4", "iters": 5, "ns_per_op": 149499795, "bytes_per_op": 210101816, "allocs_per_op": 100180},
      {"case": "obs=trace+timeline/replicas=4", "iters": 5, "ns_per_op": 286993129, "bytes_per_op": 453130648, "allocs_per_op": 125207}
    ]
  },
endef
export BENCH_OBS_BEFORE_ZERO_ALLOC

bench-obs:
	$(GO) test -run '^$$' -bench 'ObsOverhead' -benchtime 5x . | tee /tmp/bench_obs.txt
	@printf '{\n  "description": "BenchmarkObsOverhead + BenchmarkGenObsOverhead: untraced vs lifecycle trace vs trace+timeline on serving.RunCluster (100k requests, 4 replicas) and on the saturated generative-KV engine (200 cnn-dailymail sequences, kv=48/prefix=0.5/chunk=256). obs=off must match BENCH_cluster.json dispatch=round-robin/replicas=4 and gen-obs=off must match BENCH_gen.json kv=48/prefix=0.5/chunk=256, each within noise and with zero extra allocs/op (every emission site is one nil check); the traced rows bound the cost of a fully observed study. Regenerate with make bench-obs; before_zero_alloc preserves the pre-pooling per-window-allocation numbers.",\n' > BENCH_obs.json
	@$(call bench_meta,BENCH_obs.json)
	@echo "$$BENCH_OBS_BEFORE_ZERO_ALLOC" >> BENCH_obs.json
	@awk 'BEGIN { printf("  \"results\": [\n") } \
	  /^Benchmark(Gen)?ObsOverhead\// { sub(/^Benchmark(Gen)?ObsOverhead\//, "", $$1); sub(/-[0-9]+$$/, "", $$1); printf("%s    {\"case\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, $$1, $$2, $$3, $$5, $$7); sep=",\n" } \
	  END { printf("\n  ]\n}\n") }' /tmp/bench_obs.txt >> BENCH_obs.json
	@echo "bench-obs: wrote BENCH_obs.json"

# Streaming-pipeline record: the materializing-vs-streaming history is
# frozen below (those epochs predate the current code and cannot be
# re-measured); bench-stream re-measures only the current 1M-request
# end-to-end row.
define BENCH_STREAM_HISTORY
  "before": {
    "commit": "5b14a8b (materializing pipeline)",
    "scenario_100k": {
      "n": 100000,
      "metrics": "exact (only mode)",
      "time_ms": 575,
      "bytes_allocated": 71858808
    },
    "scenario_1m": {
      "n": 1000000,
      "note": "not runnable under GOMEMLIMIT=256MiB: trace + 2x result slices + 2x latency slices exceed the limit (>400 MB live)"
    }
  },
  "after_streaming": {
    "commit": "streaming pipeline refactor",
    "machine": "Intel Xeon @ 2.10GHz, go1.24, linux/amd64",
    "scenario_100k_exact": {
      "n": 100000,
      "metrics": "exact",
      "time_ms": 508,
      "bytes_allocated": 63317728
    },
    "scenario_100k_sketch": {
      "n": 100000,
      "metrics": "sketch",
      "time_ms": 505,
      "bytes_allocated": 53501136
    },
    "scenario_1m_sketch": {
      "n": 1000000,
      "metrics": "sketch",
      "time_ms": 4954,
      "peak_live_heap_bytes": 4089446,
      "note": "peak live heap is O(queue + handlers + sketches), independent of trace length; verified by TestStreamingMillionBoundedMemory under GOMEMLIMIT=256MiB (make mem-smoke)"
    }
  },
  "dist_interleaved_microbench": {
    "workload": "200 bursts of 100 Adds, one Percentile(99) query per burst (20k samples)",
    "naive_full_resort_ns_per_op": 139174386,
    "merge_sorted_runs_ns_per_op": 4192997,
    "speedup": "33x"
  },
endef
export BENCH_STREAM_HISTORY

bench-stream:
	$(GO) test -run '^$$' -bench BenchmarkStreamingMillion -benchtime 1x . | tee /tmp/bench_stream.txt
	@printf '{\n  "description": "Streaming-pipeline record for core.RunScenario (vanilla + Apparate runs) on resnet18/video-0, seed 1. The results row is the current 1M-request sketch-mode scheduled-rate scenario end to end (BenchmarkStreamingMillion, 1 iteration); before/after_streaming freeze the materializing-pipeline history. Regenerate with make bench-stream.",\n' > BENCH_stream.json
	@$(call bench_meta,BENCH_stream.json)
	@echo "$$BENCH_STREAM_HISTORY" >> BENCH_stream.json
	@awk 'BEGIN { printf("  \"results\": [\n") } \
	  /^BenchmarkStreamingMillion/ { sub(/-[0-9]+$$/, "", $$1); printf("%s    {\"case\": \"streaming_1m_sketch\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, $$2, $$3, $$5, $$7); sep=",\n" } \
	  END { printf("\n  ]\n}\n") }' /tmp/bench_stream.txt >> BENCH_stream.json
	@echo "bench-stream: wrote BENCH_stream.json"

# Generative KV-runtime benchmark (kv=off vs bounded pools with/without
# the prefix cache, plus a saturated small pool with chunked prefill)
# emitted as BENCH_gen.json. Rows carry the engine's own observables
# (tok/s, kv_util, prefix_hits, preempts, queue_ms) alongside ns/op;
# the awk below parses the value/unit pairs generically so new
# ReportMetric columns flow through without Makefile changes.
bench-gen:
	$(GO) test -run '^$$' -bench BenchmarkGenKV -benchtime 5x . | tee /tmp/bench_gen.txt
	@printf '{\n  "description": "BenchmarkGenKV: the generative engine over 200 cnn-dailymail sequences at 6 seq/s — kv=off (classic unbounded path) vs a 96-block pool with/without the prefix cache vs a saturated 48-block pool with chunked prefill. Each row records the engine observables (tok_per_s, kv_util, prefix_hits, preempts, queue_ms) alongside ns/op; the saturated rows must show preempts > 0 and the kv=off row must track the pre-KV engine cost. Regenerate with make bench-gen.",\n' > BENCH_gen.json
	@$(call bench_meta,BENCH_gen.json)
	@awk 'BEGIN { printf("  \"results\": [\n") } \
	  /^BenchmarkGenKV\// { sub(/^BenchmarkGenKV\//, "", $$1); sub(/-[0-9]+$$/, "", $$1); \
	    printf("%s    {\"case\": \"%s\", \"iters\": %s", sep, $$1, $$2); \
	    for (i = 3; i < NF; i += 2) { u = $$(i+1); gsub(/\//, "_per_", u); printf(", \"%s\": %s", u, $$i) } \
	    printf("}"); sep=",\n" } \
	  END { printf("\n  ]\n}\n") }' /tmp/bench_gen.txt >> BENCH_gen.json
	@echo "bench-gen: wrote BENCH_gen.json"

# Regenerate every BENCH_*.json in one shot, all stamped with the same
# commit/machine metadata. BENCH_shards.json is a static record of the
# deleted intra-scenario sharding and is not regenerated.
bench-all: bench-cluster bench-faults bench-obs bench-stream bench-gen

# A 24+-scenario mixed grid at -workers 8, then the determinism gate:
# the same grid at -workers 1 must emit byte-identical JSON.
SMOKE_FLAGS = -models resnet18,resnet50,vgg11,distilbert-base,bert-base,t5-large \
	-workloads video-0,video-1,amazon,imdb,cnn-dailymail \
	-budgets 0.01,0.02 -n 1500 -gen-n 10 -seed 1 -quiet

# Bursty-schedule autoscaling grid (2-phase and square-wave schedules,
# 1..4 replicas): the load-dynamics acceptance gate, byte-identical at
# any worker count in both metrics modes like the main grid.
AUTOSCALE_FLAGS = -models resnet50,bert-base -workloads video-1,amazon \
	-rate-schedule 'phases:15x1/15x4,square:30/0.5/3' -autoscale 1..4 \
	-n 2000 -seed 3 -quiet

# Faulty grid (one-shot crash and churn+delay+loss fault models under
# retry/hedging over 2 replicas): the chaos-study acceptance gate —
# crash schedules, lossy transit, and hedging must all stay
# byte-identical at any worker count. (The no-retry variants are
# pinned by the golden grid; empty axis members are not expressible
# from the CLI list flags.)
FAULTS_FLAGS = -models resnet50,bert-base -workloads video-1,amazon \
	-replicas 2 -dispatch round-robin,least-loaded \
	-faults 'crash:r1@3000+2000|mtbf:8000/1000;delaydist=exp:2;loss=0.002' \
	-retry attempts=3/hedge=95 -n 2000 -seed 4 -quiet

# Traced grid (lifecycle trace + gauge timeline over single-replica,
# cluster, and faulty points): the observability determinism gate —
# every per-scenario trace_NNN.jsonl and timeline_NNN.csv must be
# byte-identical at any worker count.
OBS_FLAGS = -models resnet18,resnet50 -workloads video-0,video-1 \
	-replicas 1,2 -faults 'crash:r0@2000+800;loss=0.002' \
	-retry attempts=2 -n 1500 -seed 6 -quiet

# Generative KV grid (bounded KV pool × prefix cache × chunked prefill
# crossed with exit-rate over both generative workloads): the
# memory-runtime determinism gate — block accounting, preemption order,
# and the gen.prefix stream must all stay byte-identical at any worker
# count.
GENKV_FLAGS = -models t5-large -workloads cnn-dailymail,squad \
	-kv-blocks 0,64 -prefix-hit 0,0.4 -prefill-chunk 128 \
	-acc-losses 0.01,0.05 -gen-n 10 -seed 8 -quiet

# Traced generative-KV grid: the same axes with both observability
# sinks on — every sequence-lifecycle trace and KV-pool timeline must
# be byte-identical at any worker count, and tracing must not move the
# result JSON off the untraced run's.
GENKV_OBS_FLAGS = -models t5-large -workloads cnn-dailymail,squad \
	-kv-blocks 0,64 -prefix-hit 0,0.4 -prefill-chunk 128 \
	-gen-n 10 -seed 8 -quiet

sweep-smoke:
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -workers 8 -out /tmp/sweep-w8.json
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -workers 1 -out /tmp/sweep-w1.json >/dev/null
	cmp /tmp/sweep-w1.json /tmp/sweep-w8.json
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -metrics sketch -workers 8 -out /tmp/sweep-sk-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -metrics sketch -workers 1 -out /tmp/sweep-sk-w1.json >/dev/null
	cmp /tmp/sweep-sk-w1.json /tmp/sweep-sk-w8.json
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -workers 8 -out /tmp/sweep-as-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -workers 1 -out /tmp/sweep-as-w1.json >/dev/null
	cmp /tmp/sweep-as-w1.json /tmp/sweep-as-w8.json
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -metrics sketch -workers 8 -out /tmp/sweep-as-sk-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -metrics sketch -workers 1 -out /tmp/sweep-as-sk-w1.json >/dev/null
	cmp /tmp/sweep-as-sk-w1.json /tmp/sweep-as-sk-w8.json
	$(GO) run ./cmd/apparate-sweep $(FAULTS_FLAGS) -workers 8 -out /tmp/sweep-flt-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(FAULTS_FLAGS) -workers 1 -out /tmp/sweep-flt-w1.json >/dev/null
	cmp /tmp/sweep-flt-w1.json /tmp/sweep-flt-w8.json
	rm -rf /tmp/sweep-obs-w8 /tmp/sweep-obs-w1
	$(GO) run ./cmd/apparate-sweep $(OBS_FLAGS) -obs-dir /tmp/sweep-obs-w8 -workers 8 -out /tmp/sweep-obs-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(OBS_FLAGS) -obs-dir /tmp/sweep-obs-w1 -workers 1 -out /tmp/sweep-obs-w1.json >/dev/null
	cmp /tmp/sweep-obs-w1.json /tmp/sweep-obs-w8.json
	diff -r /tmp/sweep-obs-w1 /tmp/sweep-obs-w8
	$(GO) run ./cmd/apparate-sweep $(GENKV_FLAGS) -workers 8 -out /tmp/sweep-kv-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(GENKV_FLAGS) -workers 1 -out /tmp/sweep-kv-w1.json >/dev/null
	cmp /tmp/sweep-kv-w1.json /tmp/sweep-kv-w8.json
	rm -rf /tmp/sweep-kvobs-w8 /tmp/sweep-kvobs-w1
	$(GO) run ./cmd/apparate-sweep $(GENKV_OBS_FLAGS) -obs-dir /tmp/sweep-kvobs-w8 -workers 8 -out /tmp/sweep-kvobs-w8.json >/dev/null
	$(GO) run ./cmd/apparate-sweep $(GENKV_OBS_FLAGS) -obs-dir /tmp/sweep-kvobs-w1 -workers 1 -out /tmp/sweep-kvobs-w1.json >/dev/null
	cmp /tmp/sweep-kvobs-w1.json /tmp/sweep-kvobs-w8.json
	diff -r /tmp/sweep-kvobs-w1 /tmp/sweep-kvobs-w8
	@echo "sweep-smoke: deterministic across worker counts (exact + sketch, incl. autoscale, faulty, traced, generative-KV, and traced generative-KV grids)"

# Memory guard: one 10,000,000-request scheduled-rate scenario in
# sketch mode must complete under a 256 MiB soft heap limit with a
# bounded live heap — the streaming pipeline's O(1)-memory claim,
# enforced at 10x the original 1M gate (the zero-alloc hot path made
# the extra requests nearly free in both time and allocator pressure),
# including the time-varying arrival source. The traced twin runs the
# same scenario with the lifecycle trace and gauge timeline streamed
# into a byte counter under the same ceiling: a traced run keeps no
# trace in memory. Override the request count with APPARATE_MEM_N (e.g.
# APPARATE_MEM_N=100000000 for a 100M soak).
APPARATE_MEM_N ?= 10000000
mem-smoke:
	GOMEMLIMIT=256MiB APPARATE_MEM_GUARD=1 APPARATE_MEM_N=$(APPARATE_MEM_N) $(GO) test -run '^TestStreaming(Million|Traced)BoundedMemory$$' -v .

# The 100M-request soak named in ROADMAP item 4: the same bounded-heap
# assertion as mem-smoke at 10x the requests (~9 min on the bench
# machine). Not part of ci — run it before claiming production-scale
# memory behavior.
mem-soak:
	GOMEMLIMIT=256MiB APPARATE_MEM_GUARD=1 APPARATE_MEM_N=100000000 $(GO) test -run TestStreamingMillionBoundedMemory -v -timeout 30m .

# Refresh the golden pins (testdata/golden_sweep.csv and one
# testdata/tables/<id>.txt per paper artifact) after an intentional
# behavior change; review the diff like code.
golden:
	$(GO) test -run '^TestGolden(Sweep|Tables)$$' -update .

ci: build test vet race fuzz sweep-smoke mem-smoke
