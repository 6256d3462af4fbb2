package genserve

import (
	"reflect"
	"testing"

	"repro/internal/exitsim"
)

// drawingVanilla decides exactly like VanillaGen under another type, so
// the engine cannot tell it ignores its samples and draws every one.
type drawingVanilla struct {
	VanillaGen
	drawn *int
}

func (d drawingVanilla) Decide(s exitsim.Sample) (bool, float64, float64, bool) {
	if s != (exitsim.Sample{}) {
		*d.drawn++
	}
	return d.VanillaGen.Decide(s)
}

// reuseRun serves t5-large's cnn-dailymail stream at the saturating
// rate, on an unbounded pool (kvBlocks 0) or a KV pool of kvBlocks,
// keeping every OnSeq result.
func reuseRun(kvBlocks int, pol func(*Engine) Policy) (*Stats, []SeqResult) {
	e := kvEngine()
	e.KVBlocks = kvBlocks
	var seqs []SeqResult
	e.OnSeq = func(sr SeqResult) { seqs = append(seqs, sr) }
	return e.Run(allocStream(120), pol(e)), seqs
}

// TestVanillaSkipsDrawsWithoutChangingResults: VanillaGen's runs skip
// the token sampler. A policy deciding exactly like it under another
// type still draws a sample per token, and the two must report equal
// Stats and equal per-sequence results, on an unbounded pool and on a
// KV pool small enough to preempt.
func TestVanillaSkipsDrawsWithoutChangingResults(t *testing.T) {
	for _, kvBlocks := range []int{0, 64} {
		drawn := 0
		want, wantSeqs := reuseRun(kvBlocks, func(*Engine) Policy { return drawingVanilla{drawn: &drawn} })
		got, gotSeqs := reuseRun(kvBlocks, func(*Engine) Policy { return VanillaGen{} })
		if drawn != want.TotalTokens {
			t.Fatalf("kv=%d: wrapped vanilla saw %d drawn samples for %d tokens", kvBlocks, drawn, want.TotalTokens)
		}
		if kvBlocks > 0 && got.Preemptions == 0 {
			t.Fatalf("kv=%d: pool never preempted", kvBlocks)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kv=%d: vanilla stats %+v differ from the drawing policy's %+v", kvBlocks, got, want)
		}
		if !reflect.DeepEqual(gotSeqs, wantSeqs) {
			t.Fatalf("kv=%d: vanilla sequence results differ from the drawing policy's", kvBlocks)
		}
	}
}

// TestOnSeqResultsOwnTheirTokens: the engine reuses its token buffers,
// so every result kept across a whole Apparate run must hold its own
// copy — GenLen tokens whose match count reproduces its MatchRate.
func TestOnSeqResultsOwnTheirTokens(t *testing.T) {
	for _, kvBlocks := range []int{0, 64} {
		st, seqs := reuseRun(kvBlocks, func(e *Engine) Policy { return NewApparateGen(e.Model, e.Profile, 0.01) })
		if len(seqs) != st.Seqs {
			t.Fatalf("kv=%d: observed %d sequences, stats counted %d", kvBlocks, len(seqs), st.Seqs)
		}
		for _, sr := range seqs {
			if len(sr.Tokens) != sr.Request.GenLen {
				t.Fatalf("kv=%d: seq %d kept %d tokens, want %d", kvBlocks, sr.Request.ID, len(sr.Tokens), sr.Request.GenLen)
			}
			match := 0
			for _, tk := range sr.Tokens {
				if tk.Match {
					match++
				}
			}
			if rate := float64(match) / float64(len(sr.Tokens)); rate != sr.MatchRate {
				t.Fatalf("kv=%d: seq %d tokens give match rate %v, result says %v — its tokens were overwritten",
					kvBlocks, sr.Request.ID, rate, sr.MatchRate)
			}
		}
	}
}

// TestOnSeqFiresInCompletionOrder: OnSeq delivers each sequence as it
// completes, so DoneMS never decreases across calls, on an unbounded
// pool and on a pool small enough to preempt.
func TestOnSeqFiresInCompletionOrder(t *testing.T) {
	for _, kvBlocks := range []int{0, 64} {
		st, seqs := reuseRun(kvBlocks, func(*Engine) Policy { return VanillaGen{} })
		if len(seqs) != st.Seqs {
			t.Fatalf("kv=%d: observed %d sequences, stats counted %d", kvBlocks, len(seqs), st.Seqs)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i].DoneMS < seqs[i-1].DoneMS {
				t.Fatalf("kv=%d: seq %d (done %v) delivered after seq %d (done %v)", kvBlocks,
					seqs[i].Request.ID, seqs[i].DoneMS, seqs[i-1].Request.ID, seqs[i-1].DoneMS)
			}
		}
	}
}
