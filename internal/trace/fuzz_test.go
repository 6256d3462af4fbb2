package trace

import (
	"fmt"
	"math"
	"testing"
)

// FuzzParseSchedule checks ParseSchedule on arbitrary specs: it never
// panics, every schedule it accepts holds only finite numbers, and the
// canonical String form parses back to itself. The seeds are the specs
// the package tests use plus non-finite inputs, which would hang the
// scheduled arrival source if accepted; plain go test replays them.
func FuzzParseSchedule(f *testing.F) {
	for _, spec := range []string{
		"", "phases:10x1/10x4", "phases:5x0.5/20x2/5x1", "phases:15x1/15x4",
		"sine:60/0.5/2", "sine:40/0.5/2", "square:30/0.5/4", "square:30/0.5/3/0.25",
		"phases:", "phases:10", "phases:0x1", "phases:10x-1", "sine:60/2/0.5",
		"square:30/0.5/4/1.5", "diurnal:60/1/2", "nonsense",
		"sine:NaN/1/2", "sine:60/0.5/Inf", "phases:10xNaN", "phases:Infx1",
		"square:30/0.5/4/NaN", "square:+Inf/0/1",
		"phases:1e21x1/5e-324x2", "sine:1e21/1e-300/1e300", "square:5e-324/0/1e300/1e-300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil || s == nil {
			return
		}
		for _, v := range scheduleNumbers(s) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseSchedule(%q) accepted non-finite %g", spec, v)
			}
		}
		canon := s.String()
		again, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
	})
}

// scheduleNumbers lists every number a parsed schedule holds.
func scheduleNumbers(s Schedule) []float64 {
	switch s := s.(type) {
	case *PhaseSchedule:
		var out []float64
		for _, p := range s.Phases {
			out = append(out, p.DurSec, p.Mult)
		}
		return out
	case *SineSchedule:
		return []float64{s.PeriodSec, s.Min, s.Max}
	case *SquareSchedule:
		return []float64{s.PeriodSec, s.Lo, s.Hi, s.Duty}
	}
	panic(fmt.Sprintf("scheduleNumbers: unknown schedule type %T", s))
}
