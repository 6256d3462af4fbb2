package genserve

import (
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

func t5Setup() (*Engine, *workload.GenStream) {
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	s := workload.CNNDailyMail(120, 3, 31)
	return e, s
}

// funcHandler adapts a closure to engine.Handler, for test-only
// processes that do not need a handler type of their own.
type funcHandler func(now float64)

func (f funcHandler) OnEvent(now float64, _ uint8, _ uint64) { f(now) }

func TestVanillaTPTConstant(t *testing.T) {
	e, s := t5Setup()
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	stats := e.Run(s, VanillaGen{})
	e.OnSeq = nil
	want := e.stepMS()
	for _, seq := range seqs {
		for _, tk := range seq.Tokens {
			if tk.TPTms != want {
				t.Fatalf("vanilla TPT %v, want %v", tk.TPTms, want)
			}
			if tk.Exited || !tk.Match {
				t.Fatal("vanilla token exited or mismatched")
			}
		}
	}
	if len(seqs) != stats.Seqs {
		t.Fatalf("observer saw %d sequences, stats counted %d", len(seqs), stats.Seqs)
	}
	if stats.MeanMatchRate != 1.0 {
		t.Fatalf("vanilla match rate %v", stats.MeanMatchRate)
	}
}

func TestTokenCountsMatchRequests(t *testing.T) {
	e, s := t5Setup()
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	e.Run(s, VanillaGen{})
	e.OnSeq = nil
	genLen := map[int]int{}
	for _, r := range s.Materialize() {
		genLen[r.ID] = r.GenLen
	}
	if len(seqs) != len(genLen) {
		t.Fatalf("observed %d sequences, stream has %d", len(seqs), len(genLen))
	}
	for _, seq := range seqs {
		if want := genLen[seq.Request.ID]; len(seq.Tokens) != want {
			t.Fatalf("seq %d generated %d tokens, want %d", seq.Request.ID, len(seq.Tokens), want)
		}
	}
}

func TestOptimalGenFasterNeverWrong(t *testing.T) {
	e, s := t5Setup()
	van := e.Run(s, VanillaGen{})
	opt := e.Run(s, NewOptimalGen(e.Model, e.Profile))
	if opt.MeanMatchRate != 1.0 {
		t.Fatalf("optimal match rate %v", opt.MeanMatchRate)
	}
	if opt.TPT().Median() >= van.TPT().Median() {
		t.Fatalf("optimal median TPT %v not below vanilla %v",
			opt.TPT().Median(), van.TPT().Median())
	}
}

func TestFREEFixedRampSavesTPT(t *testing.T) {
	e, s := t5Setup()
	free := NewFREE(e.Model, e.Profile, s, 0.01)
	if free.Threshold <= 0 {
		t.Fatal("FREE tuned a zero threshold")
	}
	van := e.Run(s, VanillaGen{})
	fr := e.Run(s, free)
	if fr.TPT().Median() >= van.TPT().Median() {
		t.Fatalf("FREE median %v not below vanilla %v", fr.TPT().Median(), van.TPT().Median())
	}
}

func TestFREELosesAccuracyUnderDrift(t *testing.T) {
	// §4.4: FREE's one-time tuning yields accuracy losses on drifting
	// workloads while Apparate holds the constraint.
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	s := workload.CNNDailyMail(400, 3, 33)
	free := e.Run(s, NewFREE(m, e.Profile, s, 0.01))
	app := e.Run(s, NewApparateGen(m, e.Profile, 0.01))
	if free.MeanScore >= app.MeanScore {
		t.Fatalf("FREE sequence score %v not below Apparate %v",
			free.MeanScore, app.MeanScore)
	}
	// The 1% constraint applies to the sequence-level score (§4.3).
	if app.MeanScore < 0.985 {
		t.Fatalf("Apparate sequence score %v below constraint margin", app.MeanScore)
	}
}

func TestApparateGenSavesTPT(t *testing.T) {
	e, s := t5Setup()
	van := e.Run(s, VanillaGen{})
	app := e.Run(s, NewApparateGen(e.Model, e.Profile, 0.01))
	vm, am := van.TPT().Median(), app.TPT().Median()
	if am >= vm {
		t.Fatalf("apparate median TPT %v not below vanilla %v", am, vm)
	}
	// Paper: 70–78% median TPT wins for T5; require a substantial win.
	if (vm-am)/vm < 0.3 {
		t.Fatalf("apparate TPT win only %.1f%%", (vm-am)/vm*100)
	}
}

func TestApparateGenAdapts(t *testing.T) {
	e, s := t5Setup()
	pol := NewApparateGen(e.Model, e.Profile, 0.01)
	e.Run(s, pol)
	if pol.TuneRounds == 0 {
		t.Fatal("generative policy never tuned")
	}
}

func TestApparateGenTailMild(t *testing.T) {
	// §4.3: P95 TPT may exceed vanilla slightly (parallel-decode
	// catch-up), but only by a few percent.
	e, s := t5Setup()
	van := e.Run(s, VanillaGen{})
	app := e.Run(s, NewApparateGen(e.Model, e.Profile, 0.01))
	vp, ap := van.TPT().Percentile(95), app.TPT().Percentile(95)
	if ap > vp*1.15 {
		t.Fatalf("apparate P95 TPT %v exceeds vanilla %v by >15%%", ap, vp)
	}
}

func TestLlamaWinsGrowWithSize(t *testing.T) {
	win := func(m *model.Model) float64 {
		// Long enough for the single-ramp position search to converge.
		e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindSQuAD))
		s := workload.SQuAD(700, 2, 35)
		van := e.Run(s, VanillaGen{})
		app := e.Run(s, NewApparateGen(m, e.Profile, 0.01))
		vm := van.TPT().Median()
		return (vm - app.TPT().Median()) / vm
	}
	w7 := win(model.Llama27B())
	w13 := win(model.Llama213B())
	if w7 <= 0 || w13 <= 0 {
		t.Fatalf("llama wins not positive: 7B=%v 13B=%v", w7, w13)
	}
	if w13 <= w7 {
		t.Fatalf("13B win %v not above 7B win %v", w13, w7)
	}
}

func TestFlushBoundsPending(t *testing.T) {
	// With an always-exit policy, the flush must trigger every
	// FlushCount tokens and add the standalone-flush cost.
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	e.FlushCount = 4
	req := workload.GenRequest{ID: 0, GenLen: 16, SeqSeed: 1, BaseDifficulty: 0.1}
	pol := &alwaysExit{depth: 0.3}
	tokens, _ := e.decodeSequence(req, pol, nil)
	if pol.flushes != 4 {
		t.Fatalf("saw %d flushes for 16 always-exit tokens with FlushCount 4", pol.flushes)
	}
	// Every 4th token pays the flush premium.
	if tokens[3].TPTms <= tokens[2].TPTms {
		t.Fatal("flush token not slower than plain exit token")
	}
}

type alwaysExit struct {
	depth   float64
	flushes int
}

func (a *alwaysExit) Decide(exitsim.Sample) (bool, float64, float64, bool) {
	return true, a.depth, 0, true
}
func (a *alwaysExit) ObserveFlush() { a.flushes++ }

func TestSlotsBoundConcurrency(t *testing.T) {
	// With 1 slot, sequences serialize: each starts no earlier than the
	// previous finishes.
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	e.MaxConcurrent = 1
	s := workload.CNNDailyMail(20, 50, 37) // arrival rate far above service
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	e.Run(s, VanillaGen{})
	e.OnSeq = nil
	for i := 1; i < len(seqs); i++ {
		if seqs[i].StartMS < seqs[i-1].DoneMS-1e-9 {
			t.Fatalf("seq %d started before seq %d finished", i, i-1)
		}
	}
}

func TestSaturatedBatchFactor(t *testing.T) {
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	if e.batchFactor() <= 1 {
		t.Fatal("saturated batch factor not above 1")
	}
	if e.stepMS() <= m.BaseLatencyMS {
		t.Fatal("step latency ignores batching")
	}
}

// TestRunBoundedPendingEvents pins the engine-migration memory claim: a
// generative run's pending event count stays bounded by the slot pool
// (one milestone per slot + one armed arrival + the monitor below),
// never growing with the stream. Each arrival event arms the next one;
// a light-load stream, where slots free before the next arrival, is
// where an arming bug would duplicate arrivals per completion.
func TestRunBoundedPendingEvents(t *testing.T) {
	m := model.T5Large()
	e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
	// Build the run exactly as Run does, plus a monitor process sampling
	// the heap between events.
	k := e.newKVSim(workload.CNNDailyMail(400, 0.5, 9), VanillaGen{})
	maxPending := 0
	var monitor funcHandler
	monitor = func(now float64) {
		if p := k.loop.Pending(); p > maxPending {
			maxPending = p
		}
		if k.has || k.running > 0 {
			k.loop.Schedule(now+50, 2, monitor, 0, 0)
		}
	}
	k.loop.Schedule(0, 2, monitor, 0, 0)
	k.loop.Run()
	if st := k.finish(); st.Seqs != 400 {
		t.Fatalf("served %d sequences, want 400", st.Seqs)
	}
	// Bound: MaxConcurrent milestones + 1 armed arrival + the monitor's
	// own event.
	if limit := e.MaxConcurrent + 2; maxPending > limit {
		t.Fatalf("pending events peaked at %d (> %d): arrival events are duplicating with the stream", maxPending, limit)
	}
}
