package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{Model: "no-such-model", Workload: "video-0", N: 100},
		{Model: "resnet50", Workload: "no-such-workload", N: 100},
		{Model: "resnet50", Workload: "video-3x", N: 100},
		{Model: "resnet50", Workload: "amazon", N: 100},   // CV model, NLP workload
		{Model: "bert-base", Workload: "video-0", N: 100}, // NLP model, video
		{Model: "bert-base", Workload: "squad", N: 100},   // classifier, generative workload
		{Model: "t5-large", Workload: "imdb", N: 100},     // generative model, classification
		{Model: "resnet50", Workload: "video-0", N: 100, Platform: "nope"},
		{Model: "resnet50", Workload: "video-0", N: 100, Dispatch: "nope"},
		{Model: "resnet50", Workload: "video-0", N: 100, ExitRule: "nope"},
		{Model: "resnet50", Workload: "video-0", N: 0},
		{Model: "resnet50", Workload: "video-0", N: 100, RateMult: -1},
		// Non-finite numbers: ParseFloat accepts NaN and Inf, and NaN
		// slips past every ordinary <= comparison. The first three
		// hang the arrival source if they get past validation.
		{Model: "bert-base", Workload: "amazon", N: 100, RateMult: math.NaN()},
		{Model: "bert-base", Workload: "amazon", N: 100, RateMult: math.Inf(1)},
		{Model: "resnet50", Workload: "video-0", N: 100, RateSchedule: "sine:NaN/1/2"},
		{Model: "resnet50", Workload: "video-0", N: 100, RateSchedule: "phases:10xInf"},
		{Model: "resnet50", Workload: "video-0", N: 100, RateSchedule: "square:30/0.5/4/NaN"},
		{Model: "resnet50", Workload: "video-0", N: 100, RampBudget: math.NaN()},
		{Model: "resnet50", Workload: "video-0", N: 100, RampBudget: -0.1},
		{Model: "resnet50", Workload: "video-0", N: 100, AccLoss: math.NaN()},
		{Model: "resnet50", Workload: "video-0", N: 100, AccLoss: math.Inf(1)},
		// Out of range: ramp and accuracy budgets are fractions, and a
		// replica count of 0 means unset but a negative one is an error.
		{Model: "resnet50", Workload: "video-0", N: 100, RampBudget: 5},
		// A classification budget below one default ramp's overhead
		// (0.004) deploys no ramp; the accepted side is pinned below.
		{Model: "resnet50", Workload: "video-0", N: 100, RampBudget: 0.0039},
		{Model: "bert-base", Workload: "amazon", N: 100, RampBudget: 0.001},
		{Model: "t5-large", Workload: "squad", N: 10, RampBudget: 1.5},
		{Model: "resnet50", Workload: "video-0", N: 100, AccLoss: 2},
		{Model: "t5-large", Workload: "squad", N: 10, AccLoss: 1.5},
		{Model: "resnet50", Workload: "video-0", N: 100, Replicas: -2},
		{Model: "t5-large", Workload: "squad", N: 10, Replicas: -1},
		{Model: "t5-large", Workload: "squad", N: 10, PrefixHit: math.NaN()},
		{Model: "resnet50", Workload: "video-0", N: 100, Timeline: true, ObsTickMS: math.NaN()},
		{Model: "resnet50", Workload: "video-0", N: 100, Timeline: true, ObsTickMS: math.Inf(1)},
		{Model: "resnet50", Workload: "video-0", N: 100, Autoscale: "1..4/window=NaN"},
		{Model: "resnet50", Workload: "video-0", N: 100, Autoscale: "1..4/up=NaN"},
		{Model: "resnet50", Workload: "video-0", N: 100, Autoscale: "1..4/down=NaN"},
		{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2, Faults: "delaydist=const:NaN"},
		{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2, Faults: "crash:r0@NaN+5"},
		{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2, Faults: "mtbf:Inf/5"},
		{Model: "resnet50", Workload: "video-0", N: 100, Replicas: 2, Faults: "loss=0.1;timeout=Inf"},
		// Finite but extreme. A per-second arrival mean above
		// trace.MaxQPS: 1e300 overflows rng.Poisson's int, 1e6 buffers
		// and sorts millions of arrivals per simulated second.
		{Model: "bert-base", Workload: "amazon", N: 100, RateMult: 1e300},
		{Model: "bert-base", Workload: "amazon", N: 100, RateMult: 1e6},
		{Model: "resnet50", Workload: "video-0", N: 100, RateSchedule: "phases:10x1/10x1e9"},
		{Model: "t5-large", Workload: "squad", N: 10, RateMult: 1e300},
		// An expected run longer than trace.MaxRunSec: the sources step
		// through every simulated second, arrivals or not.
		{Model: "bert-base", Workload: "amazon", N: 100, RateMult: 1e-300},
		{Model: "resnet50", Workload: "video-0", N: 100, RateSchedule: "phases:10x1e-9"},
		// More autoscale windows over the expected run than
		// autoscale.MaxWindows: the cluster closes them one at a time.
		{Model: "resnet50", Workload: "video-0", N: 100, Autoscale: "1..2/window=1e-300"},
		{Model: "resnet50", Workload: "video-0", N: 8000, Autoscale: "1..2/window=1e-3"},
		// More timeline rows over the expected run than obs.MaxRows: the
		// timeline writes one row per tick. A 1e-6 ms tick on this ~1.7 s
		// run asks for ~1.7e9 rows.
		{Model: "resnet50", Workload: "video-0", N: 50, Timeline: true, ObsTickMS: 1e-300},
		{Model: "resnet50", Workload: "video-0", N: 50, Timeline: true, ObsTickMS: 1e-6},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", sc)
		}
	}
	for _, good := range []Scenario{
		{Model: "resnet50", Workload: "video-0", N: 100},
		// One default ramp's overhead is the smallest classification
		// budget; generative runs deploy no ramps and take any budget.
		{Model: "resnet50", Workload: "video-0", N: 100, RampBudget: 0.004},
		{Model: "t5-large", Workload: "squad", N: 10, RampBudget: 1e-9},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", good, err)
		}
	}
}

// TestWorkloadNamesAreCanonical pins that a workload name is valid iff
// workload.Names or workload.GenNames lists it. The first five rejected
// names are ones a numeric parse of "video-%d" reads as a video:
// trailing text, a leading zero, a sign, trailing space and a fraction.
func TestWorkloadNamesAreCanonical(t *testing.T) {
	for _, name := range []string{"video-3x", "video-03", "video-+3", "video-3 ", "video-7.5", "video-8"} {
		t.Run(name, func(t *testing.T) {
			if _, err := workload.ByName(name, 10, 30, 1); err == nil {
				t.Error("workload.ByName accepted it")
			}
			if workload.IsVideo(name) {
				t.Error("workload.IsVideo accepted it")
			}
			if err := (Scenario{Model: "resnet50", Workload: name, N: 100}).Validate(); err == nil {
				t.Error("Scenario.Validate accepted it")
			}
		})
	}
	for _, name := range workload.Names() {
		s, err := workload.ByName(name, 10, 30, 1)
		if err != nil {
			t.Fatalf("workload.ByName(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("workload.ByName(%q) built a stream named %q", name, s.Name)
		}
	}
	for _, name := range workload.GenNames() {
		s, err := workload.GenByName(name, 10, 1, 1)
		if err != nil {
			t.Fatalf("workload.GenByName(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("workload.GenByName(%q) built a stream named %q", name, s.Name)
		}
	}
}

// RunScenario must reject a bad dispatch even at one replica, where
// Normalize would otherwise collapse the axis and mask the typo.
func TestRunScenarioRejectsBadEnumsBeforeNormalize(t *testing.T) {
	_, err := RunScenario(Scenario{Model: "resnet50", Workload: "video-0", N: 100, Dispatch: "fifo"})
	if err == nil {
		t.Fatal("RunScenario accepted dispatch \"fifo\"")
	}
	_, err = RunScenario(Scenario{Model: "t5-large", Workload: "squad", N: 5, Platform: "nope"})
	if err == nil {
		t.Fatal("RunScenario accepted platform \"nope\" on a generative scenario")
	}
}

func TestScenarioNormalizeCanonicalizes(t *testing.T) {
	sc := Scenario{Model: "t5-large", Workload: "squad", N: 10,
		Platform: "tf-serve", Dispatch: "least-loaded", Replicas: 4}.Normalize()
	if sc.Platform != "clockwork" || sc.Dispatch != "round-robin" || sc.Replicas != 1 {
		t.Fatalf("generative scenario not canonicalized: %+v", sc)
	}
	one := Scenario{Model: "resnet50", Workload: "video-0", N: 10, Dispatch: "least-loaded"}.Normalize()
	if one.Dispatch != "round-robin" {
		t.Fatalf("dispatch should collapse at one replica: %+v", one)
	}
}

func TestScenarioIdentityExcludesSeed(t *testing.T) {
	a := Scenario{Model: "resnet50", Workload: "video-0", N: 100, Seed: 1}
	b := a
	b.Seed = 99
	if a.Identity() != b.Identity() {
		t.Fatal("Identity must not depend on the seed")
	}
	if a.Key() == b.Key() {
		t.Fatal("Key must depend on the seed")
	}
}

func TestRunScenarioClassification(t *testing.T) {
	res, err := RunScenario(Scenario{Model: "resnet50", Workload: "video-0", N: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generative {
		t.Fatal("classification scenario marked generative")
	}
	if res.Requests != 3000 || res.SLOms <= 0 {
		t.Fatalf("bad run metadata: %+v", res)
	}
	if res.Apparate.P50ms >= res.Vanilla.P50ms {
		t.Fatalf("apparate median %.2f not below vanilla %.2f", res.Apparate.P50ms, res.Vanilla.P50ms)
	}
	if res.AccDelta > 0.011+0.005 {
		t.Fatalf("accuracy loss %.4f far above the 1%% constraint", res.AccDelta)
	}
	if res.TuneRounds == 0 && res.AdjustRounds == 0 {
		t.Fatal("no adaptation recorded")
	}
}

func TestRunScenarioCluster(t *testing.T) {
	res, err := RunScenario(Scenario{
		Model: "bert-base", Workload: "amazon", N: 3000, Seed: 2,
		Replicas: 3, Dispatch: "least-loaded",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuneRounds == 0 {
		t.Fatal("cluster run recorded no tuning across replicas")
	}
	if res.ActiveRamps == 0 {
		t.Fatal("cluster run recorded no active ramps")
	}
	if res.Vanilla.Throughput <= 0 || res.Apparate.Throughput <= 0 {
		t.Fatalf("cluster throughput missing: %+v", res)
	}
}

func TestRunScenarioGenerative(t *testing.T) {
	res, err := RunScenario(Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Generative {
		t.Fatal("generative scenario not marked")
	}
	if res.Requests != 20 {
		t.Fatalf("served %d sequences, want 20", res.Requests)
	}
	if res.Vanilla.Accuracy != 1 {
		t.Fatalf("vanilla sequence score %v, want 1 (no exits)", res.Vanilla.Accuracy)
	}
	if res.Apparate.Throughput <= 0 {
		t.Fatal("generative throughput missing")
	}
}

// TestRunScenarioObsGenerative: a traced generative scenario keeps its
// observability knobs through Normalize, returns populated sinks (the
// timeline in its generative column mode), and its Result is identical
// to an untraced run's — the sinks are passive.
func TestRunScenarioObsGenerative(t *testing.T) {
	sc := Scenario{
		Model: "t5-large", Workload: "cnn-dailymail", N: 20, Seed: 3,
		KVBlocks: 48, PrefixHit: 0.4, PrefillChunk: 128,
		Trace: true, Timeline: true, ObsTickMS: 200,
	}
	if n := sc.Normalize(); !n.Trace || !n.Timeline {
		t.Fatal("Normalize cleared the generative observability knobs")
	}
	res, od := runBuffered(t, sc)
	if od.Trace == nil || od.Timeline == nil {
		t.Fatalf("generative traced run returned nil sinks: %+v", od)
	}
	if od.Trace.Len() == 0 || len(od.Timeline.Rows) == 0 {
		t.Fatalf("generative sinks are empty: %d events, %d rows",
			od.Trace.Len(), len(od.Timeline.Rows))
	}
	if !od.Timeline.Gen {
		t.Fatal("generative timeline not in generative column mode")
	}
	plain, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if *res != *plain {
		t.Fatalf("tracing changed the generative result:\ntraced: %+v\nplain:  %+v", res, plain)
	}
}

func TestRunScenarioGenEngineKnobs(t *testing.T) {
	base := Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 20, Seed: 3}
	tuned := base
	tuned.GenSlots, tuned.GenFlush = 2, 4
	if base.Identity() == tuned.Identity() {
		t.Fatal("gen engine knobs missing from Identity")
	}
	a, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(tuned)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer slots mean smaller decode batches, so each full step is
	// faster: vanilla per-token TPT must drop.
	if b.Vanilla.P50ms >= a.Vanilla.P50ms {
		t.Fatalf("2-slot vanilla TPT %.2fms not below default-8 %.2fms",
			b.Vanilla.P50ms, a.Vanilla.P50ms)
	}
	// On classification scenarios the knobs are inert and normalize away.
	cls := Scenario{Model: "resnet50", Workload: "video-0", N: 100, GenSlots: 2}
	if cls.Normalize().GenSlots != 0 {
		t.Fatal("gen knobs must collapse on classification scenarios")
	}
	if _, err := RunScenario(Scenario{Model: "t5-large", Workload: "squad", N: 5, GenSlots: -1}); err == nil {
		t.Fatal("negative gen-slots accepted")
	}
}

// TestRunScenarioDeterministic: the same scenario yields an identical
// result — the property the sweep's parallelism rests on.
func TestRunScenarioDeterministic(t *testing.T) {
	sc := Scenario{Model: "resnet18", Workload: "video-2", N: 1500, Seed: 11, Replicas: 2}
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunScenario is not deterministic for identical scenarios")
	}
}

// TestScenarioMetricsModeIsLive pins that the Metrics knob reaches the
// recorder on every scenario class — a silent fallback to exact would
// pass the memory guard (two exact Dists for 1M requests are only a few
// MB) while ignoring the user's -metrics sketch. Sketch mode must be
// observable end to end: the sketched percentiles of a dispersed
// latency distribution differ from the exact ones (bin quantization),
// while count-based fields stay identical.
func TestScenarioMetricsModeIsLive(t *testing.T) {
	for _, sc := range []Scenario{
		{Model: "resnet50", Workload: "video-0", N: 3000, Seed: 5},                                        // single replica
		{Model: "bert-base", Workload: "amazon", N: 3000, Seed: 5, Replicas: 2, Dispatch: "least-loaded"}, // cluster
		{Model: "t5-large", Workload: "cnn-dailymail", N: 30, Seed: 5},                                    // generative
	} {
		exact := sc
		exact.Metrics = "exact"
		sketch := sc
		sketch.Metrics = "sketch"
		re, err := RunScenario(exact)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RunScenario(sketch)
		if err != nil {
			t.Fatal(err)
		}
		if re.Requests != rs.Requests {
			t.Fatalf("%s: request counts differ across modes: %d vs %d", sc.Workload, re.Requests, rs.Requests)
		}
		differs := false
		for _, pair := range [][2]float64{
			{re.Vanilla.P50ms, rs.Vanilla.P50ms},
			{re.Vanilla.P95ms, rs.Vanilla.P95ms},
			{re.Apparate.P50ms, rs.Apparate.P50ms},
			{re.Apparate.P95ms, rs.Apparate.P95ms},
		} {
			if pair[0] != pair[1] {
				differs = true
			}
			// And the sketch must still be within its 1% error budget.
			if pair[0] != 0 {
				if rel := (pair[1] - pair[0]) / pair[0]; rel > 0.01 || rel < -0.01 {
					t.Fatalf("%s: sketch percentile %v off exact %v by more than 1%%", sc.Workload, pair[1], pair[0])
				}
			}
		}
		if !differs {
			t.Fatalf("%s: sketch summaries bit-identical to exact — Metrics knob is not reaching the recorder", sc.Workload)
		}
	}
}

func TestScenarioKVKnobs(t *testing.T) {
	base := Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 20, Seed: 3}
	kv := base
	kv.KVBlocks, kv.BlockTokens, kv.PrefixHit, kv.PrefillChunk = 96, 8, 0.5, 128
	if base.Identity() == kv.Identity() {
		t.Fatal("KV knobs missing from Identity")
	}
	// Unset knobs are identity-omitted: the base identity must not
	// mention any KV token, so pre-KV derived seeds never shift.
	for _, tok := range []string{"kv=", "blocktok=", "prefixhit=", "prefillchunk="} {
		if strings.Contains(base.Identity(), tok) {
			t.Fatalf("identity %q mentions %q with the knob unset", base.Identity(), tok)
		}
	}
	a, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(kv)
	if err != nil {
		t.Fatal(err)
	}
	if a.KVUtil != 0 || a.Preemptions != 0 || a.PrefixHits != 0 || a.QueueMS != 0 {
		t.Fatalf("KV-off scenario reported KV activity: %+v", a)
	}
	if b.KVUtil <= 0 {
		t.Fatalf("bounded-pool scenario reported zero kv_util (prefix hits %d)", b.PrefixHits)
	}
	if b.PrefixHits == 0 {
		t.Fatal("prefix-cache scenario realized zero hits at ratio 0.5")
	}
	// On classification scenarios the knobs are inert and normalize
	// away; without a pool, block granularity normalizes away too.
	cls := Scenario{Model: "resnet50", Workload: "video-0", N: 100, KVBlocks: 96, PrefixHit: 0.5}
	if n := cls.Normalize(); n.KVBlocks != 0 || n.PrefixHit != 0 {
		t.Fatal("KV knobs must collapse on classification scenarios")
	}
	poolless := Scenario{Model: "t5-large", Workload: "cnn-dailymail", N: 20, BlockTokens: 8}
	if poolless.Normalize().BlockTokens != 0 {
		t.Fatal("block tokens must collapse without a pool")
	}
	if _, err := RunScenario(Scenario{Model: "t5-large", Workload: "squad", N: 5, KVBlocks: -1}); err == nil {
		t.Fatal("negative kv-blocks accepted")
	}
	if _, err := RunScenario(Scenario{Model: "t5-large", Workload: "squad", N: 5, PrefixHit: 1.5}); err == nil {
		t.Fatal("out-of-range prefix-hit accepted")
	}
}
