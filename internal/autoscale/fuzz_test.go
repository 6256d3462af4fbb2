package autoscale

import (
	"math"
	"testing"
)

// FuzzParse checks Parse on arbitrary specs: it never panics, every
// config it accepts holds only finite thresholds, and the canonical
// String form parses back to itself. The empty spec is skipped: it
// means "no autoscaler", and its zero Config has no spec form. The
// seeds are the specs the package tests use plus non-finite inputs,
// which would leave the scaler unable to act if accepted.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"1..4", "2..8/window=2000/cool=7000/up=0.9/down=0.3", "2..8/window=2000",
		"1..3/up=0.9/down=0.3", "1..4/window=2000/cool=6000", "1..3",
		"4", "4..1", "0..4", "1..4/window", "1..4/warp=2", "a..b",
		"1..4/up=0.5/downlat=0.6", "1..4/down=1.5",
		"1..4/window=NaN", "1..4/up=NaN", "1..4/down=NaN", "1..4/cool=Inf",
		"1..4/backlog=NaN", "1..4/downlat=-Inf", "1..4/up=+Inf",
		"1..4/window=1e21/cool=5e-324", "1..4/up=1e300/down=1e-300/backlog=1e21",
		// Parse accepts tiny windows; Config.CheckRun bounds them against
		// the run's length.
		"1..2/window=1e-300", "1..2/window=1e-3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if spec == "" {
			return
		}
		c, err := Parse(spec)
		if err != nil {
			return
		}
		for _, v := range []float64{c.WindowMS, c.CooldownMS, c.UpLatFrac, c.UpBacklogFrac, c.DownLatFrac, c.DownUtil} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted non-finite %g: %+v", spec, v, c)
			}
		}
		canon := c.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
	})
}
