// Package faults is the deterministic fault-model of the cluster
// simulator: replica crash/restart schedules, per-hop network delay
// distributions, and request-level loss, plus the dispatcher-side
// retry/hedging policy that turns those faults into availability
// rather than lost work.
//
// A Spec is pure description — parsed from a compact string such as
//
//	crash:r1@2000+500;mtbf:8000/1000;delaydist=lognormal:5,1;loss=0.001
//
// and realized by serving.RunCluster as events on the shared engine
// clock. Every stochastic element (churn up/down draws, network delay
// samples, loss coin flips) is drawn from dedicated rng streams labeled
// off the scenario seed (rng.Labeled), so enabling faults never
// perturbs the base scenario's arrival and service draws, and a faulty
// run is exactly as deterministic as a fault-free one.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// DelayKind names a network-delay distribution family.
type DelayKind int

// Supported delay distributions.
const (
	// DelayNone is the free network: zero delay on every hop.
	DelayNone DelayKind = iota
	// DelayConst adds a fixed delay A ms to every hop.
	DelayConst
	// DelayUniform draws uniformly from [A, B) ms.
	DelayUniform
	// DelayExp draws exponentially with mean A ms.
	DelayExp
	// DelayLognormal draws A·exp(B·N(0,1)) ms — median A, log-sigma B,
	// the heavy-tailed shape measured on real datacenter hops.
	DelayLognormal
)

// DelayDist is a per-hop network delay distribution between the
// dispatcher and a replica. The zero value is the free network.
type DelayDist struct {
	Kind DelayKind
	A, B float64
}

// Sample draws one hop delay in milliseconds. The free network draws
// nothing, so configuring a Spec without a delay distribution consumes
// no randomness.
func (d DelayDist) Sample(r *rng.Rand) float64 {
	switch d.Kind {
	case DelayConst:
		return d.A
	case DelayUniform:
		return d.A + (d.B-d.A)*r.Float64()
	case DelayExp:
		return r.Exp(1 / d.A)
	case DelayLognormal:
		return d.A * math.Exp(d.B*r.Norm())
	}
	return 0
}

// String renders the distribution in the spec form ParseDelay accepts.
func (d DelayDist) String() string {
	switch d.Kind {
	case DelayConst:
		return "const:" + ftoa(d.A)
	case DelayUniform:
		return "uniform:" + ftoa(d.A) + "," + ftoa(d.B)
	case DelayExp:
		return "exp:" + ftoa(d.A)
	case DelayLognormal:
		return "lognormal:" + ftoa(d.A) + "," + ftoa(d.B)
	}
	return ""
}

// ParseDelay parses a delay-distribution spec: const:V | uniform:A,B |
// exp:MEAN | lognormal:MEDIAN,SIGMA (all in milliseconds). The empty
// spec is the free network.
func ParseDelay(spec string) (DelayDist, error) {
	var d DelayDist
	if spec == "" {
		return d, nil
	}
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return d, fmt.Errorf("faults: delay dist %q must be KIND:ARGS (const:2, uniform:1,5, exp:3, lognormal:5,1)", spec)
	}
	vals, err := floats(args)
	if err != nil {
		return d, fmt.Errorf("faults: delay dist %q: %v", spec, err)
	}
	want := 2
	switch kind {
	case "const":
		d.Kind, want = DelayConst, 1
	case "uniform":
		d.Kind = DelayUniform
	case "exp":
		d.Kind, want = DelayExp, 1
	case "lognormal":
		d.Kind = DelayLognormal
	default:
		return DelayDist{}, fmt.Errorf("faults: unknown delay dist %q (want const | uniform | exp | lognormal)", kind)
	}
	if len(vals) != want {
		return DelayDist{}, fmt.Errorf("faults: delay dist %s wants %d args, got %d", kind, want, len(vals))
	}
	d.A = vals[0]
	if want == 2 {
		d.B = vals[1]
	}
	switch {
	case d.Kind == DelayUniform && (d.A < 0 || d.B < d.A):
		return DelayDist{}, fmt.Errorf("faults: uniform delay bounds [%g, %g) must satisfy 0 <= a <= b", d.A, d.B)
	case d.Kind == DelayLognormal && (d.A <= 0 || d.B < 0):
		return DelayDist{}, fmt.Errorf("faults: lognormal delay (median %g, sigma %g) wants median > 0, sigma >= 0", d.A, d.B)
	case (d.Kind == DelayConst || d.Kind == DelayExp) && d.A <= 0:
		return DelayDist{}, fmt.Errorf("faults: %s delay %g must be positive", kind, d.A)
	}
	return d, nil
}

// Crash is a one-shot fail-stop: replica Replica goes down at AtMS and
// restarts (empty-queued) DownMS later.
type Crash struct {
	Replica int
	AtMS    float64
	DownMS  float64
}

// Churn is a periodic crash/restart process: up-times are exponential
// with mean UpMS (MTBF) and down-times exponential with mean DownMS
// (MTTR), drawn from a per-replica labeled rng stream. Replica -1
// applies the process to every replica independently.
type Churn struct {
	Replica int
	UpMS    float64
	DownMS  float64
}

// Spec is a complete fault model for one cluster run. The zero Spec
// injects nothing.
type Spec struct {
	// Crashes are one-shot crash/restart events.
	Crashes []Crash
	// Churns are periodic MTBF/MTTR processes.
	Churns []Churn
	// Delay is the dispatcher→replica network delay distribution,
	// sampled per dispatched copy.
	Delay DelayDist
	// Loss is the probability a dispatched copy is lost in transit.
	Loss float64
	// TimeoutMS is the dispatcher's loss-detection timeout: a lost copy
	// is noticed (and retried or recorded lost) this long after
	// dispatch. Zero defers to the serving layer's SLO.
	TimeoutMS float64
}

// Empty reports whether the spec injects no faults at all.
func (s *Spec) Empty() bool {
	return s == nil ||
		len(s.Crashes) == 0 && len(s.Churns) == 0 && s.Delay.Kind == DelayNone && s.Loss == 0
}

// MaxReplica returns the highest replica index named by a crash or
// churn clause, or -1 when no clause names one (all-replica churn and
// pure network faults).
func (s *Spec) MaxReplica() int {
	max := -1
	for _, c := range s.Crashes {
		if c.Replica > max {
			max = c.Replica
		}
	}
	for _, c := range s.Churns {
		if c.Replica > max {
			max = c.Replica
		}
	}
	return max
}

// String renders the spec in the canonical form Parse accepts: crashes
// sorted by (replica, time), then churns by replica, then delaydist,
// loss, and timeout. Parse(s.String()) reproduces the spec, and two
// specs describing the same fault model render identically — the
// property scenario identities (and the seeds derived from them) rely
// on.
func (s *Spec) String() string {
	if s.Empty() && (s == nil || s.TimeoutMS == 0) {
		return ""
	}
	// Both orders are total, so clauses that tie on replica and time
	// still render in one order whatever order they were written in.
	crashes := append([]Crash(nil), s.Crashes...)
	slices.SortFunc(crashes, func(a, b Crash) int {
		return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.AtMS, b.AtMS), cmp.Compare(a.DownMS, b.DownMS))
	})
	churns := append([]Churn(nil), s.Churns...)
	slices.SortFunc(churns, func(a, b Churn) int {
		return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.UpMS, b.UpMS), cmp.Compare(a.DownMS, b.DownMS))
	})
	var parts []string
	for _, c := range crashes {
		parts = append(parts, fmt.Sprintf("crash:r%d@%s+%s", c.Replica, ftoa(c.AtMS), ftoa(c.DownMS)))
	}
	for _, c := range churns {
		if c.Replica < 0 {
			parts = append(parts, fmt.Sprintf("mtbf:%s/%s", ftoa(c.UpMS), ftoa(c.DownMS)))
		} else {
			parts = append(parts, fmt.Sprintf("mtbf:r%d@%s/%s", c.Replica, ftoa(c.UpMS), ftoa(c.DownMS)))
		}
	}
	if s.Delay.Kind != DelayNone {
		parts = append(parts, "delaydist="+s.Delay.String())
	}
	if s.Loss > 0 {
		parts = append(parts, "loss="+ftoa(s.Loss))
	}
	if s.TimeoutMS > 0 {
		parts = append(parts, "timeout="+ftoa(s.TimeoutMS))
	}
	return strings.Join(parts, ";")
}

// Parse parses a fault spec: semicolon-separated clauses, each one of
//
//	crash:r<I>@<AT>+<DOWN>      one-shot crash of replica I at AT ms,
//	                            down for DOWN ms
//	mtbf:<UP>/<DOWN>            periodic churn on every replica: mean
//	                            up-time UP ms, mean down-time DOWN ms
//	mtbf:r<I>@<UP>/<DOWN>       periodic churn on replica I only
//	delaydist=<DIST>            dispatcher→replica delay distribution
//	                            (const:V | uniform:A,B | exp:MEAN |
//	                            lognormal:MEDIAN,SIGMA)
//	loss=<P>                    per-copy transit loss probability
//	timeout=<MS>                loss-detection timeout override
//
// The empty spec returns (nil, nil): no fault model at all.
func Parse(spec string) (*Spec, error) {
	if spec == "" {
		return nil, nil
	}
	s := &Spec{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "crash:"):
			c, err := parseCrash(strings.TrimPrefix(clause, "crash:"))
			if err != nil {
				return nil, err
			}
			s.Crashes = append(s.Crashes, c)
		case strings.HasPrefix(clause, "mtbf:"):
			c, err := parseChurn(strings.TrimPrefix(clause, "mtbf:"))
			if err != nil {
				return nil, err
			}
			s.Churns = append(s.Churns, c)
		case strings.HasPrefix(clause, "delaydist="):
			d, err := ParseDelay(strings.TrimPrefix(clause, "delaydist="))
			if err != nil {
				return nil, err
			}
			s.Delay = d
		case strings.HasPrefix(clause, "loss="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(clause, "loss="), 64)
			if err != nil || !(v >= 0) || v >= 1 {
				return nil, fmt.Errorf("faults: loss %q must be a probability in [0, 1)", strings.TrimPrefix(clause, "loss="))
			}
			s.Loss = v
		case strings.HasPrefix(clause, "timeout="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(clause, "timeout="), 64)
			if err != nil || !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("faults: timeout %q must be a positive finite duration in ms", strings.TrimPrefix(clause, "timeout="))
			}
			s.TimeoutMS = v
		default:
			return nil, fmt.Errorf("faults: unknown clause %q (want crash: | mtbf: | delaydist= | loss= | timeout=)", clause)
		}
	}
	if s.Empty() && s.TimeoutMS == 0 {
		return nil, fmt.Errorf("faults: spec %q injects nothing", spec)
	}
	return s, nil
}

// parseCrash parses "r<I>@<AT>+<DOWN>".
func parseCrash(s string) (Crash, error) {
	rep, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Crash{}, fmt.Errorf("faults: crash clause %q must be r<I>@<AT>+<DOWN>", s)
	}
	idx, err := replicaIndex(rep)
	if err != nil {
		return Crash{}, err
	}
	atS, downS, ok := cutPlus(rest)
	if !ok {
		return Crash{}, fmt.Errorf("faults: crash clause %q must be r<I>@<AT>+<DOWN>", s)
	}
	at, err1 := strconv.ParseFloat(atS, 64)
	down, err2 := strconv.ParseFloat(downS, 64)
	// The negated comparisons also reject NaN, which compares false to
	// everything.
	if err1 != nil || err2 != nil || !(at >= 0) || math.IsInf(at, 0) || !(down > 0) || math.IsInf(down, 0) {
		return Crash{}, fmt.Errorf("faults: crash clause %q wants finite AT >= 0 and DOWN > 0 ms", s)
	}
	return Crash{Replica: idx, AtMS: at, DownMS: down}, nil
}

// cutPlus splits "<AT>+<DOWN>" at the first '+' that is not an exponent
// sign, so a canonical AT such as 1e+06 (String renders times of 10^6
// ms and up in exponent form) parses back.
func cutPlus(s string) (before, after string, found bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '+' && s[i-1] != 'e' && s[i-1] != 'E' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// parseChurn parses "<UP>/<DOWN>" or "r<I>@<UP>/<DOWN>".
func parseChurn(s string) (Churn, error) {
	idx := -1
	if strings.HasPrefix(s, "r") {
		rep, rest, ok := strings.Cut(s, "@")
		if !ok {
			return Churn{}, fmt.Errorf("faults: mtbf clause %q must be <UP>/<DOWN> or r<I>@<UP>/<DOWN>", s)
		}
		var err error
		if idx, err = replicaIndex(rep); err != nil {
			return Churn{}, err
		}
		s = rest
	}
	upS, downS, ok := strings.Cut(s, "/")
	if !ok {
		return Churn{}, fmt.Errorf("faults: mtbf clause %q must be <UP>/<DOWN>", s)
	}
	up, err1 := strconv.ParseFloat(upS, 64)
	down, err2 := strconv.ParseFloat(downS, 64)
	if err1 != nil || err2 != nil || !(up > 0) || math.IsInf(up, 0) || !(down > 0) || math.IsInf(down, 0) {
		return Churn{}, fmt.Errorf("faults: mtbf clause %q wants positive finite UP and DOWN means in ms", s)
	}
	return Churn{Replica: idx, UpMS: up, DownMS: down}, nil
}

func replicaIndex(s string) (int, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("faults: replica %q must be r<INDEX>", s)
	}
	idx, err := strconv.Atoi(s[1:])
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("faults: replica %q must be r<INDEX> with INDEX >= 0", s)
	}
	return idx, nil
}

// Retry is the dispatcher's failure-handling policy. The zero value
// dispatches every request exactly once and never hedges — pre-fault
// behavior.
type Retry struct {
	// Attempts bounds dispatch attempts per request (loss retries and
	// overflow re-dispatches; crash requeues are infrastructure and are
	// not bounded by it). 0 and 1 both mean a single attempt.
	Attempts int
	// HedgeQ, when positive, hedges: a request still unserved after the
	// HedgeQ-th percentile of observed delivered latencies gets a
	// duplicate dispatched to a different replica; the first copy to be
	// batched wins. In (0, 100).
	HedgeQ float64
	// HedgeMin is the number of delivered latencies the dispatcher must
	// observe before hedging engages (default 32 when hedging is on).
	HedgeMin int
}

// Enabled reports whether the policy changes dispatch behavior at all.
func (r Retry) Enabled() bool { return r.Attempts > 1 || r.HedgeQ > 0 }

// String renders the policy in the canonical spec form ParseRetry
// accepts ("" for the zero policy).
func (r Retry) String() string {
	if !r.Enabled() {
		return ""
	}
	var parts []string
	if r.Attempts > 1 {
		parts = append(parts, "attempts="+strconv.Itoa(r.Attempts))
	}
	if r.HedgeQ > 0 {
		parts = append(parts, "hedge="+ftoa(r.HedgeQ))
		if r.HedgeMin > 0 && r.HedgeMin != DefaultHedgeMin {
			parts = append(parts, "hedgemin="+strconv.Itoa(r.HedgeMin))
		}
	}
	return strings.Join(parts, "/")
}

// DefaultHedgeMin is the delivered-latency sample floor below which
// hedging stays off (the quantile estimate is too noisy to act on).
const DefaultHedgeMin = 32

// ParseRetry parses a retry/hedging spec: '/'-separated key=value
// pairs from attempts=<N>, hedge=<PERCENTILE>, hedgemin=<SAMPLES>; a
// bare integer is shorthand for attempts=<N>. The empty spec is the
// zero (single-attempt, no-hedge) policy.
func ParseRetry(spec string) (Retry, error) {
	var r Retry
	if spec == "" {
		return r, nil
	}
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return r, fmt.Errorf("faults: retry attempts %d must be >= 1", n)
		}
		r.Attempts = n
		return r, nil
	}
	for _, p := range strings.Split(spec, "/") {
		key, val, ok := strings.Cut(p, "=")
		if !ok {
			return Retry{}, fmt.Errorf("faults: retry option %q must be key=value", p)
		}
		switch key {
		case "attempts":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Retry{}, fmt.Errorf("faults: retry attempts %q must be an integer >= 1", val)
			}
			r.Attempts = n
		case "hedge":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !(v > 0) || v >= 100 {
				return Retry{}, fmt.Errorf("faults: hedge percentile %q must be in (0, 100)", val)
			}
			r.HedgeQ = v
		case "hedgemin":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Retry{}, fmt.Errorf("faults: hedgemin %q must be an integer >= 1", val)
			}
			r.HedgeMin = n
		default:
			return Retry{}, fmt.Errorf("faults: unknown retry option %q (want attempts | hedge | hedgemin)", key)
		}
	}
	if r.HedgeQ > 0 && r.HedgeMin == 0 {
		r.HedgeMin = DefaultHedgeMin
	}
	if r.HedgeQ == 0 && r.HedgeMin != 0 {
		return Retry{}, fmt.Errorf("faults: hedgemin without hedge has no effect")
	}
	return r, nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		// ParseFloat accepts NaN and Inf, which slip past every range
		// check downstream.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("value %q is not finite", p)
		}
		out = append(out, v)
	}
	return out, nil
}
