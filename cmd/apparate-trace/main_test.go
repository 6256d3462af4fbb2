package main

import (
	"math"
	"testing"
)

// TestCheckFlags rejects every request count that is not positive and
// every rate and bin width that is not positive and finite, and accepts
// the defaults.
func TestCheckFlags(t *testing.T) {
	const n, qps, bin = 12000, 30.0, 10.0 // the flag defaults
	for _, tc := range []struct {
		name        string
		n           int
		qps, binSec float64
		ok          bool
	}{
		{"defaults", n, qps, bin, true},
		{"n=0", 0, qps, bin, false},
		{"n<0", -3, qps, bin, false},
		{"qps=0", n, 0, bin, false},
		{"qps<0", n, -30, bin, false},
		{"qps=NaN", n, math.NaN(), bin, false},
		{"qps=+Inf", n, math.Inf(1), bin, false},
		{"qps=-Inf", n, math.Inf(-1), bin, false},
		{"bin=0", n, qps, 0, false},
		{"bin<0", n, qps, -1, false},
		{"bin=NaN", n, qps, math.NaN(), false},
		{"bin=+Inf", n, qps, math.Inf(1), false},
		{"bin=-Inf", n, qps, math.Inf(-1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.n, tc.qps, tc.binSec)
			if (err == nil) != tc.ok {
				t.Fatalf("checkFlags(%d, %g, %g) = %v, want ok=%v", tc.n, tc.qps, tc.binSec, err, tc.ok)
			}
		})
	}
}
