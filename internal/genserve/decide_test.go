package genserve

import (
	"testing"

	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// cnnTokens returns the token samples of the first n cnn-dailymail
// sequences, in decode order.
func cnnTokens(n int) []exitsim.Sample {
	var out []exitsim.Sample
	for _, req := range workload.CNNDailyMail(n, 3, 31).Materialize() {
		ts := workload.NewTokenSampler(req)
		for i := 0; i < req.GenLen; i++ {
			out = append(out, ts.Next())
		}
	}
	return out
}

// decideAll decides each token in turn and ends a parallel-decoding
// instance where the engine would: at a full pass after exited tokens,
// and after the default FlushCount exits in a row.
func decideAll(a *ApparateGen, tokens []exitsim.Sample) {
	pending := 0
	for _, s := range tokens {
		exit, _, _, _ := a.Decide(s)
		if exit {
			pending++
		}
		if pending > 0 && (!exit || pending == 8) {
			pending = 0
			a.ObserveFlush()
		}
	}
}

// TestApparateGenDecideZeroAlloc pins that deciding a token allocates
// nothing, adaptation rounds included.
func TestApparateGenDecideZeroAlloc(t *testing.T) {
	m := model.T5Large()
	a := NewApparateGen(m, exitsim.ProfileFor(m, exitsim.KindCNNDailyMail), 0.01)
	tokens := cnnTokens(20)
	allocs := testing.AllocsPerRun(3, func() { decideAll(a, tokens) })
	if allocs != 0 {
		t.Fatalf("Decide allocated %v times per %d tokens, want 0", allocs, len(tokens))
	}
	if a.TuneRounds < 8 || a.MoveRounds < 2 {
		t.Fatalf("only %d tune and %d move rounds ran", a.TuneRounds, a.MoveRounds)
	}
}

// BenchmarkApparateGenDecide times Decide per cnn-dailymail token on
// t5-large, with a fresh policy per pass so the sweep, tune and move
// rounds fire as they do in a served stream.
func BenchmarkApparateGenDecide(b *testing.B) {
	m := model.T5Large()
	prof := exitsim.ProfileFor(m, exitsim.KindCNNDailyMail)
	tokens := cnnTokens(100)
	b.ReportAllocs()
	for b.Loop() {
		decideAll(NewApparateGen(m, prof, 0.01), tokens)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tokens)), "ns/token")
}
