package controller

import (
	"math"
	"slices"

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
// A table is a view: Rows slices it without copying, and a controller's
// window table is a view of storage that its next Observe writes.
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
	t := Table{n: len(samples), cols: len(cfg.Active), saving: savings(nil, cfg)}
	t.obs = make([]ramp.Observation, 0, t.n*t.cols)
	for _, s := range samples {
		for _, r := range cfg.Active {
			err, match := cfg.Profile.Observe(s, r.Point)
			t.obs = append(t.obs, ramp.Observation{Err: err, Match: match})
		}
	}
	return t
}

// savings appends the saving of an exit at each of cfg's active ramps to
// dst[:0].
func savings(dst []float64, cfg *ramp.Config) []float64 {
	dst = slices.Grow(dst[:0], len(cfg.Active))
	allOverhead := cfg.OverheadFrac()
	overheadUpTo := 0.0
	for _, r := range cfg.Active {
		overheadUpTo += r.Style.OverheadFrac
		dst = append(dst, (1+allOverhead)-(r.Site.Frac+overheadUpTo))
	}
	return dst
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

// The window table is kept current as inputs arrive rather than rebuilt
// for each round: its columns follow the active set, layout tabLay, and
// its rows are the window, oldest first, ending before row tabEnd of tab.
// Each input appends its row, so a round's table is a view with no copy,
// and the table is rebuilt from the ring's slots only when the active set
// changes.

// tableCurrent reports whether the window table's columns are the active
// set.
func (c *Controller) tableCurrent() bool {
	l := c.tabLay
	if l == nil || len(l.nodes) != len(c.Cfg.Active) {
		return false
	}
	for i, r := range c.Cfg.Active {
		if r.Site.NodeID != l.nodes[i] {
			return false
		}
	}
	return true
}

// syncTable rebuilds the window table from the ring's slots if the active
// set has changed since it was built.
func (c *Controller) syncTable() {
	if c.tableCurrent() {
		return
	}
	active := c.Cfg.Active
	c.tabLay = c.layoutFor(len(active))
	cols := len(active)
	if need := c.tabRows(c.filled) * cols; need > len(c.tab) {
		c.tab = make([]ramp.Observation, need)
	}
	c.tabEnd = c.filled
	// col[i] is the index of active ramp i in a slot's layout, or -1; it
	// is recomputed only when the layout changes.
	var col []int
	var slotLay *layout
	start := c.next - c.filled + len(c.ring)
	for k := 0; k < c.filled; k++ {
		s := &c.ring[(start+k)%len(c.ring)]
		row := c.tab[k*cols : (k+1)*cols]
		if s.lay != slotLay {
			slotLay = s.lay
			if col == nil {
				col = make([]int, cols)
			}
			for i, r := range active {
				col[i] = -1
				for j, id := range slotLay.nodes {
					if id == r.Site.NodeID {
						col[i] = j
						break
					}
				}
			}
		}
		for i, j := range col {
			if j < 0 {
				row[i] = missing
			} else {
				row[i] = s.obs[j]
			}
		}
	}
}

// missing is the cell of a ramp that was not active when its row was
// recorded.
var missing = ramp.Observation{Err: math.Inf(1)}

// tabRows is the table's room in rows for a window of n rows. It steps
// with what the ring holds, from a quarter of the ring to all of it, so a
// ring that never fills holds at most one row per slot. A full window gets
// a quarter of the ring more, so it slides to the front of its storage
// once per that many inputs rather than once per input.
func (c *Controller) tabRows(n int) int {
	r := len(c.ring)
	switch {
	case n <= r/4:
		return r / 4
	case n < r:
		return r
	}
	return r + r/4
}

// putRow appends the row of the input about to be recorded, whose
// observations are obs: a slot records the first len(obs) active ramps.
func (c *Controller) putRow(obs []ramp.Observation) {
	cols := len(c.tabLay.nodes)
	if (c.tabEnd+1)*cols > len(c.tab) {
		// Slide the rows that stay in the window to the front, into
		// more room while the ring fills.
		keep := min(c.filled, len(c.ring)-1)
		tab := c.tab
		if need := c.tabRows(keep+1) * cols; need > len(tab) {
			tab = make([]ramp.Observation, need)
		}
		copy(tab, c.tab[(c.tabEnd-keep)*cols:c.tabEnd*cols])
		c.tab, c.tabEnd = tab, keep
	}
	row := c.tab[c.tabEnd*cols : (c.tabEnd+1)*cols]
	for i := copy(row, obs); i < cols; i++ {
		row[i] = missing
	}
	c.tabEnd++
}

// windowTable returns the replay table of the recorded window, oldest
// first, over the current active set: a view of the kept table, valid
// until the next Observe.
func (c *Controller) windowTable() Table {
	c.syncTable()
	c.saving = savings(c.saving, c.Cfg)
	cols := len(c.tabLay.nodes)
	return Table{n: c.filled, cols: cols, obs: c.tab[(c.tabEnd-c.filled)*cols : c.tabEnd*cols], saving: c.saving}
}
