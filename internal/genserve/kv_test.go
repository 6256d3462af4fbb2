package genserve

import (
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// kvStream builds a small hand-rolled stream: all requests arrive at
// once, so admission order is decided purely by the KV runtime.
func kvStream(n, promptLen, genLen int) *workload.GenStream {
	reqs := make([]workload.GenRequest, n)
	for i := range reqs {
		reqs[i] = workload.GenRequest{
			ID: i, ArrivalMS: 0, PromptLen: promptLen, GenLen: genLen,
			SeqSeed: uint64(1000 + i), BaseDifficulty: 0.3,
		}
	}
	return workload.GenFromSlice("kv-test", exitsim.KindCNNDailyMail, reqs)
}

func kvEngine() *Engine {
	m := model.T5Large()
	return NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
}

// TestKVPoolExhaustionBlocksAdmission: with slots for everyone but a
// pool that holds only one sequence's working set, admissions must
// serialize — every later sequence starts only after the previous one
// completes, never concurrently.
func TestKVPoolExhaustionBlocksAdmission(t *testing.T) {
	e := kvEngine()
	e.KVBlocks = 6
	e.BlockTokens = 16 // one 64-token prompt + 16 gen = 5 blocks; two can't fit
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	st := e.Run(kvStream(4, 64, 16), VanillaGen{})
	if st.Seqs != 4 || len(seqs) != 4 {
		t.Fatalf("completed %d/%d sequences, want 4", st.Seqs, len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i].StartMS < seqs[i-1].DoneMS {
			t.Fatalf("seq %d started at %v before seq %d finished at %v — pool did not block admission",
				seqs[i].Request.ID, seqs[i].StartMS, seqs[i-1].Request.ID, seqs[i-1].DoneMS)
		}
	}
	if st.QueueMS <= 0 {
		t.Fatalf("mean queue wait %v, want > 0 under an exhausted pool", st.QueueMS)
	}
	if st.KVUtil <= 0 || st.KVUtil > 1 {
		t.Fatalf("kv utilization %v out of (0, 1]", st.KVUtil)
	}
}

// TestKVUnboundedPoolAdmitsFreely: the same stream with no pool starts
// every sequence immediately (slots permitting) with zero queue wait.
func TestKVUnboundedPoolAdmitsFreely(t *testing.T) {
	e := kvEngine()
	e.PrefillChunkTokens = 32 // chunked prefill leaves the pool unbounded
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	st := e.Run(kvStream(4, 64, 16), VanillaGen{})
	if st.QueueMS != 0 {
		t.Fatalf("mean queue wait %v, want 0 with slots and no pool", st.QueueMS)
	}
	for _, sr := range seqs {
		if sr.StartMS != 0 {
			t.Fatalf("seq %d started at %v, want 0", sr.Request.ID, sr.StartMS)
		}
	}
	if st.KVUtil != 0 || st.Preemptions != 0 {
		t.Fatalf("unbounded pool reported util %v, %d preemptions", st.KVUtil, st.Preemptions)
	}
}

// TestKVPreemptionDeterministicExactlyOnce: a pool two growing
// sequences overflow must preempt, the victim must be the youngest,
// every sequence still completes exactly once, and the whole run must
// be identical when repeated.
func TestKVPreemptionDeterministicExactlyOnce(t *testing.T) {
	run := func() (*Stats, []SeqResult) {
		e := kvEngine()
		e.KVBlocks = 10
		e.BlockTokens = 8
		// Two sequences fit at admission (prompt 24 + first token = 4
		// blocks each) but each grows to ⌈(24+64)/8⌉ = 11 blocks, so the
		// pool must preempt as they decode.
		var seqs []SeqResult
		e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
		st := e.Run(kvStream(3, 24, 64), VanillaGen{})
		return st, seqs
	}
	st1, seqs1 := run()
	if st1.Preemptions == 0 {
		t.Fatal("overflowing pool recorded zero preemptions")
	}
	if st1.Seqs != 3 || len(seqs1) != 3 {
		t.Fatalf("completed %d sequences (%d observed), want 3 exactly once each", st1.Seqs, len(seqs1))
	}
	seen := map[int]int{}
	for _, sr := range seqs1 {
		seen[sr.Request.ID]++
		if len(sr.Tokens) != 64 {
			t.Fatalf("seq %d delivered %d tokens, want 64 — preemption lost or duplicated tokens", sr.Request.ID, len(sr.Tokens))
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d completed %d times", id, n)
		}
	}
	if st1.TotalTokens != 3*64 {
		t.Fatalf("total tokens %d, want %d — tokens must be recorded exactly once", st1.TotalTokens, 3*64)
	}
	st2, seqs2 := run()
	if st1.Preemptions != st2.Preemptions || st1.QueueMS != st2.QueueMS || st1.KVUtil != st2.KVUtil ||
		st1.TokensPerSec != st2.TokensPerSec {
		t.Fatalf("repeat run diverged: preempt %d/%d queue %v/%v util %v/%v tok/s %v/%v",
			st1.Preemptions, st2.Preemptions, st1.QueueMS, st2.QueueMS,
			st1.KVUtil, st2.KVUtil, st1.TokensPerSec, st2.TokensPerSec)
	}
	for i := range seqs1 {
		if seqs1[i].Request.ID != seqs2[i].Request.ID || seqs1[i].DoneMS != seqs2[i].DoneMS {
			t.Fatalf("repeat run completion %d diverged: %d@%v vs %d@%v", i,
				seqs1[i].Request.ID, seqs1[i].DoneMS, seqs2[i].Request.ID, seqs2[i].DoneMS)
		}
	}
}

// TestKVPrefixDrawsOnlyFromLabeledStream: with PrefixHitRatio = 0 the
// gen.prefix stream is never consulted, so the engine seed cannot
// influence anything; with a ratio set, the seed changes which
// sequences hit but never the decoded tokens (decisions derive from the
// workload and admission order, which stays FIFO either way).
func TestKVPrefixDrawsOnlyFromLabeledStream(t *testing.T) {
	run := func(seed uint64, ratio float64) *Stats {
		e := kvEngine()
		e.KVBlocks = 256
		e.Seed = seed
		e.PrefixHitRatio = ratio
		return e.Run(kvStream(8, 64, 32), VanillaGen{})
	}
	a, b := run(1, 0), run(2, 0)
	if a.PrefixHits != 0 || b.PrefixHits != 0 {
		t.Fatalf("ratio 0 drew prefix hits: %d/%d", a.PrefixHits, b.PrefixHits)
	}
	if a.TokensPerSec != b.TokensPerSec || a.QueueMS != b.QueueMS || a.KVUtil != b.KVUtil {
		t.Fatalf("ratio-0 runs with different seeds diverged: tok/s %v/%v queue %v/%v util %v/%v",
			a.TokensPerSec, b.TokensPerSec, a.QueueMS, b.QueueMS, a.KVUtil, b.KVUtil)
	}
	c, d := run(1, 0.5), run(2, 0.5)
	if c.TotalTokens != d.TotalTokens || c.MeanMatchRate != d.MeanMatchRate {
		t.Fatalf("prefix draws leaked into token decisions: tokens %d/%d match %v/%v",
			c.TotalTokens, d.TotalTokens, c.MeanMatchRate, d.MeanMatchRate)
	}
	if c.PrefixHits == d.PrefixHits && c.TokensPerSec == d.TokensPerSec {
		t.Fatal("different seeds realized identical prefix-cache fates (stream not seed-labeled?)")
	}
}

// TestKVOffIgnoresSeed: with every KV knob unset, no gen.prefix draw
// happens, so the engine seed cannot move a run, and no KV counter
// moves.
func TestKVOffIgnoresSeed(t *testing.T) {
	m := model.T5Large()
	s := workload.CNNDailyMail(60, 3, 9)
	run := func(seed uint64) *Stats {
		e := NewEngine(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail))
		e.Seed = seed
		return e.Run(s, NewApparateGen(m, e.Profile, 0.01))
	}
	a, b := run(1), run(99)
	if a.KVUtil != 0 || a.PrefixHits != 0 || a.Preemptions != 0 {
		t.Fatalf("no-knob run reported KV activity: %+v", a)
	}
	if a.TokensPerSec != b.TokensPerSec || a.MeanMatchRate != b.MeanMatchRate ||
		a.MeanScore != b.MeanScore || a.TotalTokens != b.TotalTokens || a.QueueMS != b.QueueMS {
		t.Fatal("engine seed changed a no-knob run — a stray rng draw exists without KV knobs")
	}
}

// TestKVChunkedPrefillPreservesFIFO: chunked prefill interleaves
// prompt chunks with other sequences' progress, but admission must stay
// strictly FIFO — arrival order equals start order.
func TestKVChunkedPrefillPreservesFIFO(t *testing.T) {
	e := kvEngine()
	e.MaxConcurrent = 2
	e.PrefillChunkTokens = 64
	reqs := make([]workload.GenRequest, 6)
	for i := range reqs {
		// Staggered arrivals with alternating long/short prompts: a
		// non-FIFO admission would start a short-prompt latecomer first.
		promptLen := 512
		if i%2 == 1 {
			promptLen = 64
		}
		reqs[i] = workload.GenRequest{
			ID: i, ArrivalMS: float64(i) * 10, PromptLen: promptLen, GenLen: 8,
			SeqSeed: uint64(2000 + i), BaseDifficulty: 0.3,
		}
	}
	var starts []SeqResult
	e.OnSeq = func(sr SeqResult) { starts = append(starts, sr) }
	e.Run(workload.GenFromSlice("kv-fifo", exitsim.KindCNNDailyMail, reqs), VanillaGen{})
	byID := map[int]float64{}
	for _, sr := range starts {
		byID[sr.Request.ID] = sr.StartMS
	}
	for i := 1; i < len(reqs); i++ {
		if byID[i] < byID[i-1] {
			t.Fatalf("seq %d started at %v before seq %d at %v — chunked prefill broke FIFO admission",
				i, byID[i], i-1, byID[i-1])
		}
	}
	// The long prompt must actually be chunked: sequence 0's prefill
	// spans 512/64 = 8 chunks, so with chunk-sized interleaving its
	// completion lands after sequence 1's despite starting first.
	if len(starts) != 6 {
		t.Fatalf("completed %d sequences, want 6", len(starts))
	}
}

// TestKVRunTokenFreeNoPanic pins the Stats.TPT contract on token-free
// runs (satellite: TotalTokens == 0 early-out): an empty stream and an
// all-zero-GenLen stream both produce TotalTokens 0, and callers must
// check it before querying percentiles — Percentile on the empty
// recorder is pinned as a panic by the metrics package.
func TestKVRunTokenFreeNoPanic(t *testing.T) {
	e := kvEngine()
	empty := workload.GenFromSlice("empty", exitsim.KindCNNDailyMail, nil)
	st := e.Run(empty, VanillaGen{})
	if st.Seqs != 0 || st.TotalTokens != 0 {
		t.Fatalf("empty stream produced %d seqs / %d tokens", st.Seqs, st.TotalTokens)
	}
	st = e.Run(kvStream(3, 64, 0), VanillaGen{})
	if st.Seqs != 3 || st.TotalTokens != 0 {
		t.Fatalf("zero-GenLen stream: %d seqs / %d tokens, want 3 / 0", st.Seqs, st.TotalTokens)
	}
	if st.TPT().Len() != 0 {
		t.Fatalf("token-free run recorded %d TPT samples", st.TPT().Len())
	}
	// A bounded pool handles the same degenerate streams.
	e.KVBlocks = 8
	st = e.Run(kvStream(3, 64, 0), VanillaGen{})
	if st.Seqs != 3 || st.TotalTokens != 0 {
		t.Fatalf("KV zero-GenLen stream: %d seqs / %d tokens, want 3 / 0", st.Seqs, st.TotalTokens)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Percentile on a token-free run did not panic; the TotalTokens guard is load-bearing")
			}
		}()
		st.TPT().Percentile(50)
	}()
}
