// Package exitrule provides pluggable exit strategies. The paper's
// related work (§5) observes that existing proposals differ in how they
// turn ramp outputs into exit decisions — label confidence [48], entropy
// of the prediction [76], windowed entropy averaged over the past k
// ramps (§2.2), or patience counters across ramps [84] — and that
// Apparate is agnostic to the technique. Rules plug into
// ramp.Config.Evaluate; the controller's threshold machinery is
// unchanged because every rule consumes the same per-ramp error score
// and per-ramp threshold.
package exitrule

import "fmt"

// Rule names an exit strategy and creates per-input deciders. Rules must
// be stateless; per-input state lives in the State.
type Rule interface {
	Name() string
	// NewState returns a fresh decider for one input's pass through the
	// ramp sequence. Decide is called once per active ramp in depth
	// order.
	NewState() State
}

// State decides exits for a single input.
type State interface {
	// Decide ingests one ramp's error score and that ramp's threshold
	// and reports whether the result exits here.
	Decide(err, threshold float64) bool
}

// Entropy is the default strategy (DeeBERT-style, and Apparate's §2.2
// semantics): exit when the ramp's error/entropy score is below the
// ramp's threshold.
type Entropy struct{}

// Name returns "entropy".
func (Entropy) Name() string { return "entropy" }

// NewState returns the stateless entropy decider.
func (Entropy) NewState() State { return entropyState{} }

type entropyState struct{}

func (entropyState) Decide(err, threshold float64) bool { return err < threshold }

// Windowed averages the error score over the past K ramps (§2.2:
// "entropy in the predicted result, or averaged over the past k ramps")
// and exits when the average clears the current ramp's threshold. K
// must be positive.
type Windowed struct {
	K int
}

// Name returns "windowed-k".
func (w Windowed) Name() string { return fmt.Sprintf("windowed-%d", w.K) }

// NewState returns a decider carrying the ring of recent scores.
func (w Windowed) NewState() State {
	if w.K <= 0 {
		panic("exitrule: Windowed requires K > 0")
	}
	return &windowedState{k: w.K}
}

type windowedState struct {
	k    int
	errs []float64
}

func (s *windowedState) Decide(err, threshold float64) bool {
	s.errs = append(s.errs, err)
	if len(s.errs) > s.k {
		s.errs = s.errs[len(s.errs)-s.k:]
	}
	sum := 0.0
	for _, e := range s.errs {
		sum += e
	}
	return sum/float64(len(s.errs)) < threshold
}

// Patience is the PABEE-style strategy [84]: exit only after the score
// has cleared the threshold at P consecutive ramps, trading some latency
// for robustness against a single overconfident ramp. P must be
// positive.
type Patience struct {
	P int
}

// Name returns "patience-p".
func (p Patience) Name() string { return fmt.Sprintf("patience-%d", p.P) }

// NewState returns a decider carrying the consecutive-clear counter.
func (p Patience) NewState() State {
	if p.P <= 0 {
		panic("exitrule: Patience requires P > 0")
	}
	return &patienceState{p: p.P}
}

type patienceState struct {
	p     int
	clear int
}

func (s *patienceState) Decide(err, threshold float64) bool {
	if err < threshold {
		s.clear++
	} else {
		s.clear = 0
	}
	return s.clear >= s.p
}

// ByName returns a rule by its canonical name ("entropy", "windowed-K",
// "patience-P"); "" is entropy. Any other spelling of a rule, such as
// "windowed-03" or "patience-2.5", is an error.
func ByName(name string) (Rule, error) {
	switch name {
	case "entropy", "":
		return Entropy{}, nil
	}
	var rule Rule
	var k int
	if _, err := fmt.Sscanf(name, "windowed-%d", &k); err == nil && k > 0 {
		rule = Windowed{K: k}
	} else if _, err := fmt.Sscanf(name, "patience-%d", &k); err == nil && k > 0 {
		rule = Patience{P: k}
	}
	// Sscanf stops at the first non-digit and takes a sign and leading
	// zeros, so it also parses names that are not the rule's own.
	if rule == nil || rule.Name() != name {
		return nil, fmt.Errorf("exitrule: unknown rule %q", name)
	}
	return rule, nil
}
