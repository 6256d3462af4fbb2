GO ?= go

.PHONY: build test vet fmt race fuzz bench examples sweep-smoke mem-smoke mem-soak golden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when gofmt would rewrite any tracked .go file, and name the files.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Race-detector pass over the concurrent sweep engine (and the layers
# it drives: the event engine, the cluster runtime, the autoscaled
# path, the observability sinks sweep workers write in parallel, and
# the greedy search state that concurrent searches share through a
# pool).
race:
	$(GO) test -race ./internal/sweep/... ./internal/serving/... ./internal/autoscale/... ./internal/core/... ./internal/engine/... ./internal/faults/... ./internal/obs/... ./internal/genserve/... ./internal/controller/...

# Fuzz the scenario-spec parsers, the exit-rule names, the sweep's
# -only/-skip filter parser and the trace's JSONL encoder for 10s per
# target (go test -fuzz takes one target per run). A target fails on a
# panic, a parsed non-finite number, a canonical form that does not
# parse back to itself, an accepted exit-rule name that is not the
# rule's own, an accepted filter with an unknown axis or a malformed
# glob, or a trace line that differs from a plain strconv rendering of
# its event; the failing input is saved under the package's
# testdata/fuzz/ and replays in plain go test from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/autoscale
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetry$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpeeds$$' -fuzztime 10s ./internal/serving
	$(GO) test -run '^$$' -fuzz '^FuzzParseFilters$$' -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzByName$$' -fuzztime 10s ./internal/exitrule
	$(GO) test -run '^$$' -fuzz '^FuzzTracerEncoding$$' -fuzztime 10s ./internal/obs

# Run each root-package benchmark once: the whole-run cluster, fault,
# generative, obs, streaming and sweep-grid benchmarks. The paper's
# artifacts are timed by `apparate-bench -count N`. The BENCH_*.json
# files are static records of earlier runs; nothing regenerates them.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Build every example under examples/ and run each once; fails when one
# does not build or exits non-zero. The binaries go to a fresh temporary
# directory, removed on exit.
examples:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o $$d/ ./examples/...; \
	for e in $$d/*; do echo "== examples/$${e##*/}"; $$e; done

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

# Every grid writes into one fresh temporary directory, removed on exit,
# so concurrent runs never share a path and no run leaves files behind.
sweep-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; set -x; \
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -workers 8 -out $$d/sweep-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -workers 1 -out $$d/sweep-w1.json >/dev/null; \
	cmp $$d/sweep-w1.json $$d/sweep-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -metrics sketch -workers 8 -out $$d/sweep-sk-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(SMOKE_FLAGS) -metrics sketch -workers 1 -out $$d/sweep-sk-w1.json >/dev/null; \
	cmp $$d/sweep-sk-w1.json $$d/sweep-sk-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -workers 8 -out $$d/sweep-as-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -workers 1 -out $$d/sweep-as-w1.json >/dev/null; \
	cmp $$d/sweep-as-w1.json $$d/sweep-as-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -metrics sketch -workers 8 -out $$d/sweep-as-sk-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(AUTOSCALE_FLAGS) -metrics sketch -workers 1 -out $$d/sweep-as-sk-w1.json >/dev/null; \
	cmp $$d/sweep-as-sk-w1.json $$d/sweep-as-sk-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(FAULTS_FLAGS) -workers 8 -out $$d/sweep-flt-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(FAULTS_FLAGS) -workers 1 -out $$d/sweep-flt-w1.json >/dev/null; \
	cmp $$d/sweep-flt-w1.json $$d/sweep-flt-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(OBS_FLAGS) -obs-dir $$d/sweep-obs-w8 -workers 8 -out $$d/sweep-obs-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(OBS_FLAGS) -obs-dir $$d/sweep-obs-w1 -workers 1 -out $$d/sweep-obs-w1.json >/dev/null; \
	cmp $$d/sweep-obs-w1.json $$d/sweep-obs-w8.json; \
	diff -r $$d/sweep-obs-w1 $$d/sweep-obs-w8; \
	$(GO) run ./cmd/apparate-sweep $(GENKV_FLAGS) -workers 8 -out $$d/sweep-kv-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(GENKV_FLAGS) -workers 1 -out $$d/sweep-kv-w1.json >/dev/null; \
	cmp $$d/sweep-kv-w1.json $$d/sweep-kv-w8.json; \
	$(GO) run ./cmd/apparate-sweep $(GENKV_OBS_FLAGS) -obs-dir $$d/sweep-kvobs-w8 -workers 8 -out $$d/sweep-kvobs-w8.json >/dev/null; \
	$(GO) run ./cmd/apparate-sweep $(GENKV_OBS_FLAGS) -obs-dir $$d/sweep-kvobs-w1 -workers 1 -out $$d/sweep-kvobs-w1.json >/dev/null; \
	cmp $$d/sweep-kvobs-w1.json $$d/sweep-kvobs-w8.json; \
	diff -r $$d/sweep-kvobs-w1 $$d/sweep-kvobs-w8; \
	set +x; echo "sweep-smoke: deterministic across worker counts (exact + sketch, incl. autoscale, faulty, traced, generative-KV, and traced generative-KV grids)"

# Memory guard: one 10,000,000-request scheduled-rate scenario in
# sketch mode must complete under a 256 MiB soft heap limit with a
# bounded live heap — the streaming pipeline's O(1)-memory claim,
# enforced at 10x the original 1M gate (the zero-alloc hot path made
# the extra requests nearly free in both time and allocator pressure),
# including the time-varying arrival source. The traced twin runs the
# same scenario with the lifecycle trace (JSONL and Chrome trace-event)
# and gauge timeline streamed into byte counters under the same
# ceiling: a traced run keeps no trace in memory. Override the request
# count with APPARATE_MEM_N (e.g. APPARATE_MEM_N=100000000 for a 100M
# soak).
APPARATE_MEM_N ?= 10000000
mem-smoke:
	GOMEMLIMIT=256MiB APPARATE_MEM_GUARD=1 APPARATE_MEM_N=$(APPARATE_MEM_N) $(GO) test -run '^TestStreaming(Million|Traced)BoundedMemory$$' -v .

# The 100M-request soak named in ROADMAP item 4: the same bounded-heap
# assertion as mem-smoke at 10x the requests (~9 min on the bench
# machine). Not part of ci — run it before claiming production-scale
# memory behavior.
mem-soak:
	GOMEMLIMIT=256MiB APPARATE_MEM_GUARD=1 APPARATE_MEM_N=100000000 $(GO) test -run TestStreamingMillionBoundedMemory -v -timeout 30m .

# Refresh the golden pins (testdata/golden_sweep.csv, one
# testdata/tables/<id>.txt per paper artifact, and the sha256 of every
# golden grid's trace and timeline file in testdata/golden_traces.txt)
# after an intentional behavior change; review the diff like code.
golden:
	$(GO) test -run '^TestGolden(Sweep|Tables|Traces)$$' -update .

ci: build test vet fmt race fuzz examples sweep-smoke mem-smoke
