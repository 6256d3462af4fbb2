package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Schedule is a deterministic time-varying rate profile: Rate reports
// the instantaneous rate multiplier at time t (seconds). Multipliers
// compose with a workload's native rate, so the same schedule drives a
// 30 fps video stream and a trace-derived NLP stream alike. Schedules
// are pure values — two schedules parsed from the same spec are
// interchangeable — which is what makes scheduled arrival sources
// restartable: rebuilding a source from (spec, base rate, seed) replays
// the identical arrival sequence.
type Schedule interface {
	// Rate returns the rate multiplier at time t in seconds (>= 0).
	Rate(tSec float64) float64
	// MeanMult returns the time-averaged multiplier (> 0).
	MeanMult() float64
	// PeakMult returns the largest multiplier Rate reaches.
	PeakMult() float64
	// String returns the canonical spec the schedule parses back from.
	String() string
}

// Phase is one leg of a piecewise-constant schedule.
type Phase struct {
	DurSec float64 // phase length in seconds
	Mult   float64 // rate multiplier during the phase
}

// PhaseSchedule cycles through its phases forever: a
// piecewise-constant rate profile ("10 s at 1×, then 10 s at 4×, ...").
type PhaseSchedule struct {
	Phases []Phase
	total  float64
}

// NewPhaseSchedule builds a cycling piecewise schedule. Every phase
// needs a positive finite duration and a non-negative finite
// multiplier, and at least one phase must have a positive multiplier
// (an all-zero schedule would never produce an arrival).
func NewPhaseSchedule(phases []Phase) (*PhaseSchedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("trace: phase schedule needs at least one phase")
	}
	total, positive := 0.0, false
	for _, p := range phases {
		// The negated comparisons also reject NaN, which compares false
		// to everything.
		if !(p.DurSec > 0) || math.IsInf(p.DurSec, 0) {
			return nil, fmt.Errorf("trace: phase duration %g must be positive and finite", p.DurSec)
		}
		if !(p.Mult >= 0) || math.IsInf(p.Mult, 0) {
			return nil, fmt.Errorf("trace: phase multiplier %g must be non-negative and finite", p.Mult)
		}
		if p.Mult > 0 {
			positive = true
		}
		total += p.DurSec
	}
	if !positive {
		return nil, fmt.Errorf("trace: phase schedule needs at least one positive multiplier")
	}
	return &PhaseSchedule{Phases: phases, total: total}, nil
}

// Rate returns the multiplier of the phase containing t (cycling).
func (s *PhaseSchedule) Rate(tSec float64) float64 {
	t := math.Mod(tSec, s.total)
	if t < 0 {
		t += s.total
	}
	for _, p := range s.Phases {
		if t < p.DurSec {
			return p.Mult
		}
		t -= p.DurSec
	}
	return s.Phases[len(s.Phases)-1].Mult
}

// PeriodSec returns the cycle length.
func (s *PhaseSchedule) PeriodSec() float64 { return s.total }

// MeanMult returns the duration-weighted mean multiplier over one cycle.
func (s *PhaseSchedule) MeanMult() float64 {
	sum := 0.0
	for _, p := range s.Phases {
		sum += p.DurSec * p.Mult
	}
	return sum / s.total
}

// PeakMult returns the largest phase multiplier.
func (s *PhaseSchedule) PeakMult() float64 {
	peak := 0.0
	for _, p := range s.Phases {
		peak = math.Max(peak, p.Mult)
	}
	return peak
}

// String returns the canonical "phases:DURxMULT/..." spec.
func (s *PhaseSchedule) String() string {
	var b strings.Builder
	b.WriteString("phases:")
	for i, p := range s.Phases {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%gx%g", p.DurSec, p.Mult)
	}
	return b.String()
}

// SineSchedule is a diurnal-style sinusoid oscillating between Min and
// Max with the given period, starting at the midpoint and rising.
type SineSchedule struct {
	PeriodSec float64
	Min, Max  float64
}

// Rate returns the sinusoidal multiplier at t.
func (s *SineSchedule) Rate(tSec float64) float64 {
	mid := (s.Min + s.Max) / 2
	amp := (s.Max - s.Min) / 2
	return mid + amp*math.Sin(2*math.Pi*tSec/s.PeriodSec)
}

// MeanMult returns the mean multiplier over one period.
func (s *SineSchedule) MeanMult() float64 { return (s.Min + s.Max) / 2 }

// PeakMult returns Max.
func (s *SineSchedule) PeakMult() float64 { return s.Max }

// String returns the canonical "sine:PERIOD/MIN/MAX" spec.
func (s *SineSchedule) String() string {
	return fmt.Sprintf("sine:%g/%g/%g", s.PeriodSec, s.Min, s.Max)
}

// SquareSchedule is a square-wave burst profile: each period spends
// Duty of its length at Hi and the rest at Lo, starting with the burst.
type SquareSchedule struct {
	PeriodSec float64
	Lo, Hi    float64
	Duty      float64
}

// Rate returns Hi during the burst fraction of each period, Lo after.
func (s *SquareSchedule) Rate(tSec float64) float64 {
	t := math.Mod(tSec, s.PeriodSec)
	if t < 0 {
		t += s.PeriodSec
	}
	if t < s.Duty*s.PeriodSec {
		return s.Hi
	}
	return s.Lo
}

// MeanMult returns the duty-weighted mean multiplier.
func (s *SquareSchedule) MeanMult() float64 {
	return s.Duty*s.Hi + (1-s.Duty)*s.Lo
}

// PeakMult returns the larger of the two levels.
func (s *SquareSchedule) PeakMult() float64 { return math.Max(s.Lo, s.Hi) }

// String returns the canonical "square:PERIOD/LO/HI/DUTY" spec.
func (s *SquareSchedule) String() string {
	return fmt.Sprintf("square:%g/%g/%g/%g", s.PeriodSec, s.Lo, s.Hi, s.Duty)
}

// ParseSchedule parses a schedule spec. Three forms are supported;
// tokens are '/'-separated so specs compose with comma-separated CLI
// lists:
//
//	phases:10x1/10x4        10 s at 1×, 10 s at 4×, cycling
//	sine:60/0.5/2           60 s period oscillating between 0.5× and 2×
//	square:30/0.5/4         30 s period, 4× burst for half of it, else 0.5×
//	square:30/0.5/4/0.25    as above with a 25% burst duty cycle
//
// The empty spec returns (nil, nil): no schedule.
func ParseSchedule(spec string) (Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("trace: schedule spec %q needs a kind prefix (phases: | sine: | square:)", spec)
	}
	parts := strings.Split(rest, "/")
	switch kind {
	case "phases":
		phases := make([]Phase, 0, len(parts))
		for _, p := range parts {
			durS, multS, ok := strings.Cut(p, "x")
			if !ok {
				return nil, fmt.Errorf("trace: phase %q must be DURxMULT (e.g. 10x4)", p)
			}
			dur, err := strconv.ParseFloat(durS, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: phase duration %q: %v", durS, err)
			}
			mult, err := strconv.ParseFloat(multS, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: phase multiplier %q: %v", multS, err)
			}
			phases = append(phases, Phase{DurSec: dur, Mult: mult})
		}
		return NewPhaseSchedule(phases)
	case "sine":
		vals, err := parseFloats(spec, parts, 3, 3)
		if err != nil {
			return nil, err
		}
		s := &SineSchedule{PeriodSec: vals[0], Min: vals[1], Max: vals[2]}
		if s.PeriodSec <= 0 {
			return nil, fmt.Errorf("trace: sine period %g must be positive", s.PeriodSec)
		}
		if s.Min < 0 || s.Max <= 0 || s.Max < s.Min {
			return nil, fmt.Errorf("trace: sine range [%g, %g] must satisfy 0 <= min <= max, max > 0", s.Min, s.Max)
		}
		return s, nil
	case "square":
		vals, err := parseFloats(spec, parts, 3, 4)
		if err != nil {
			return nil, err
		}
		s := &SquareSchedule{PeriodSec: vals[0], Lo: vals[1], Hi: vals[2], Duty: 0.5}
		if len(vals) == 4 {
			s.Duty = vals[3]
		}
		if s.PeriodSec <= 0 {
			return nil, fmt.Errorf("trace: square period %g must be positive", s.PeriodSec)
		}
		if s.Lo < 0 || s.Hi <= 0 {
			return nil, fmt.Errorf("trace: square levels lo=%g hi=%g must satisfy lo >= 0, hi > 0", s.Lo, s.Hi)
		}
		if s.Duty <= 0 || s.Duty >= 1 {
			return nil, fmt.Errorf("trace: square duty %g must be in (0, 1)", s.Duty)
		}
		return s, nil
	}
	return nil, fmt.Errorf("trace: unknown schedule kind %q (want phases | sine | square)", kind)
}

func parseFloats(spec string, parts []string, min, max int) ([]float64, error) {
	if len(parts) < min || len(parts) > max {
		return nil, fmt.Errorf("trace: schedule spec %q wants %d-%d '/'-separated values, got %d", spec, min, max, len(parts))
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: schedule value %q: %v", p, err)
		}
		// ParseFloat accepts NaN and Inf; either would make the arrival
		// source spin forever on a non-finite per-second rate.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("trace: schedule value %q must be finite", p)
		}
		out[i] = v
	}
	return out, nil
}

// NewScheduled returns an arrival source whose rate follows
// baseQPS × sched.Rate(t): each second's arrival count is Poisson at
// baseQPS × Rate(mid-second). Randomness comes from r only, so
// rebuilding the source with an identically seeded generator replays
// the same sequence (the restartable-Arrivals contract).
func NewScheduled(baseQPS float64, sched Schedule, r *rng.Rand) Arrivals {
	if !(baseQPS > 0) || math.IsInf(baseQPS, 0) {
		panic("trace: Scheduled baseQPS must be positive and finite")
	}
	if sched == nil {
		panic("trace: Scheduled needs a schedule")
	}
	return &perSecond{r: r, rate: func(sec int) float64 {
		return baseQPS * sched.Rate(float64(sec)+0.5)
	}}
}
