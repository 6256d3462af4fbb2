package controller

import (
	"math"

	"repro/internal/exitsim"
	"repro/internal/ramp"
)

// Table is a replay table: one row per recorded input, one column per
// ramp of the configuration it was built for (cfg.Active, depth order),
// each cell the observation that ramp reported for that input. A
// threshold search builds one table and evaluates every candidate on
// it, so observations are gathered once per search rather than once per
// candidate. A ramp that was not active when its row was recorded holds
// Err = +Inf: it never exits that input and always charges it overhead.
//
// A table is a view: Rows slices it without copying, and the next
// rebuild of a controller's window table reuses its storage.
type Table struct {
	n, cols int
	obs     []ramp.Observation // row-major, n × cols
	// saving[i] is the saving of an exit at column i as a fraction of the
	// model's bs=1 latency: the full model with every ramp, minus the
	// prefix up to ramp i and the overhead of ramps 0..i. The overheads
	// accumulate left to right, ramp by ramp: summing them in any other
	// order changes the last bits of every result.
	saving []float64
}

// NewTable evaluates the samples through cfg's active ramps and returns
// their replay table, one row per sample.
func NewTable(cfg *ramp.Config, samples []exitsim.Sample) Table {
	t := Table{n: len(samples), cols: len(cfg.Active), saving: savings(cfg)}
	t.obs = make([]ramp.Observation, 0, t.n*t.cols)
	for _, s := range samples {
		for _, r := range cfg.Active {
			err, match := cfg.Profile.Observe(s, r.Point)
			t.obs = append(t.obs, ramp.Observation{Err: err, Match: match})
		}
	}
	return t
}

func savings(cfg *ramp.Config) []float64 {
	out := make([]float64, len(cfg.Active))
	allOverhead := cfg.OverheadFrac()
	overheadUpTo := 0.0
	for i, r := range cfg.Active {
		overheadUpTo += r.Style.OverheadFrac
		out[i] = (1 + allOverhead) - (r.Site.Frac + overheadUpTo)
	}
	return out
}

// Len returns the number of rows.
func (t Table) Len() int { return t.n }

// frac returns x per row of the table, or 0 for a table with no rows.
func (t Table) frac(x float64) float64 {
	if t.n == 0 {
		return 0
	}
	return x / float64(t.n)
}

// Rows returns the view of rows [lo, hi).
func (t Table) Rows(lo, hi int) Table {
	t.obs = t.obs[lo*t.cols : hi*t.cols]
	t.n = hi - lo
	return t
}

// row returns row r's cells.
func (t Table) row(r int) []ramp.Observation {
	return t.obs[r*t.cols : (r+1)*t.cols]
}

// layout is the active set's site node IDs, in depth order, at the time
// a window slot was recorded. Slots recorded under the same active set
// share one layout.
type layout struct {
	nodes []int
}

// slot is one recorded input: its observation at each ramp of its
// layout.
type slot struct {
	obs []ramp.Observation
	lay *layout
}

// layoutFor returns the layout of the first n active ramps, reusing the
// current one while the active set is unchanged.
func (c *Controller) layoutFor(n int) *layout {
	active := c.Cfg.Active
	if l := c.lay; l != nil && len(l.nodes) == n {
		same := true
		for i, id := range l.nodes {
			if active[i].Site.NodeID != id {
				same = false
				break
			}
		}
		if same {
			return l
		}
	}
	l := &layout{nodes: make([]int, n)}
	for i := range l.nodes {
		l.nodes[i] = active[i].Site.NodeID
	}
	c.lay = l
	return l
}

// windowTable returns the replay table of the recorded window, oldest
// first, over the current active set. It reuses the storage of the
// previous window table, which must no longer be in use.
func (c *Controller) windowTable() Table {
	cfg := c.Cfg
	if size := len(c.ring) * len(cfg.Active); cap(c.tabBuf) < size {
		c.tabBuf = make([]ramp.Observation, 0, size)
	}
	t := Table{n: c.filled, cols: len(cfg.Active), obs: c.tabBuf[:0], saving: savings(cfg)}
	// col[i] is the index of active ramp i in the current slot's layout,
	// or -1; it is recomputed only when the layout changes.
	col := make([]int, t.cols)
	var lay *layout
	missing := ramp.Observation{Err: math.Inf(1)}
	start := c.next - c.filled + len(c.ring)
	for k := 0; k < c.filled; k++ {
		s := &c.ring[(start+k)%len(c.ring)]
		if s.lay != lay {
			lay = s.lay
			for i, r := range cfg.Active {
				col[i] = -1
				for j, id := range lay.nodes {
					if id == r.Site.NodeID {
						col[i] = j
						break
					}
				}
			}
		}
		for _, j := range col {
			if j < 0 {
				t.obs = append(t.obs, missing)
			} else {
				t.obs = append(t.obs, s.obs[j])
			}
		}
	}
	return t
}
