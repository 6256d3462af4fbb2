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
// Rows lie stride cells apart, and a row's first cols cells are its
// columns. A controller's window table keeps retired columns after them
// (see syncTable); NewTable's rows have none.
//
// A table is a view: Rows slices it without copying, and a controller's
// window table is a view of storage that its next Observe writes.
type Table struct {
	n, cols, stride int
	obs             []ramp.Observation // row-major, n × stride
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
	cols := len(cfg.Active)
	t := Table{n: len(samples), cols: cols, stride: cols, saving: savings(nil, cfg)}
	t.obs = make([]ramp.Observation, 0, t.n*cols)
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
	t.obs = t.obs[lo*t.stride : hi*t.stride]
	t.n = hi - lo
	return t
}

// row returns row r's cells.
func (t Table) row(r int) []ramp.Observation {
	return t.obs[r*t.stride : r*t.stride+t.cols]
}

// The controller keeps one copy of its recorded window, the window table,
// current as inputs arrive: its rows are the window, oldest first, and
// its first columns are the active set's. Each input appends its row, so
// a round's table is a view with no copy. When the active set changes,
// the window is rewritten once into the new columns. A ramp that leaves
// the set keeps its column, retired, behind the active ones for as long
// as a window row holds an observation in it, so a ramp reactivated
// inside the window gets its observations back.

// tableCurrent reports whether the window table's columns are the active
// set.
func (c *Controller) tableCurrent() bool {
	active := c.Cfg.Active
	if len(active) != c.cols {
		return false
	}
	for i, r := range active {
		if r.Site.NodeID != c.nodes[i] {
			return false
		}
	}
	return true
}

// syncTable rewrites the window table if the active set has changed since
// it was last written. Its new columns are the active set's, then each old
// column whose ramp has left the set and still holds an observation in the
// window; a column takes the cells of the old column of its ramp, or is
// missing throughout.
func (c *Controller) syncTable() {
	if c.tableCurrent() {
		return
	}
	active, old := c.Cfg.Active, c.nodes
	oldW := len(old)
	win := c.tab[(c.tabEnd-c.filled)*oldW : c.tabEnd*oldW]
	nodes := make([]int, len(active), len(active)+oldW)
	for i, r := range active {
		nodes[i] = r.Site.NodeID
	}
	for j, id := range old {
		if !slices.Contains(nodes[:len(active)], id) && holds(win, oldW, j) {
			nodes = append(nodes, id)
		}
	}
	w := len(nodes)
	tab := c.tab
	if c.filled*w > len(tab) {
		tab = make([]ramp.Observation, c.tabRows(c.filled)*w)
	}
	// Move the window to the storage's tail, then write the new rows front
	// to back, each from a copy of its old row: a new row may overwrite its
	// own old cells, but it ends before the old rows not yet read begin,
	// because the storage holds the window at the wider of the two strides.
	tail := tab[len(tab)-len(win):]
	copy(tail, win)
	src := make([]int, w)
	for i, id := range nodes {
		src[i] = slices.Index(old, id)
	}
	oldRow := make([]ramp.Observation, oldW)
	for k := 0; k < c.filled; k++ {
		copy(oldRow, tail[k*oldW:])
		row := tab[k*w : (k+1)*w]
		for i, j := range src {
			if j < 0 {
				row[i] = missing
			} else {
				row[i] = oldRow[j]
			}
		}
	}
	c.tab, c.tabEnd, c.nodes, c.cols = tab, c.filled, nodes, len(active)
}

// holds reports whether column j of the rows in win, stride w, holds an
// observation. A missing cell's Err is +Inf, and an observation's never
// is: error scores lie in [0, 1].
func holds(win []ramp.Observation, w, j int) bool {
	for k := j; k < len(win); k += w {
		if !math.IsInf(win[k].Err, 1) {
			return true
		}
	}
	return false
}

// missing is the cell of a ramp that was not active when its row was
// recorded.
var missing = ramp.Observation{Err: math.Inf(1)}

// tabRows is the table's room in rows for a window of n rows. It steps
// with the window, from a quarter of RecordWindow to all of it, so a
// window that never fills takes at most one row of room per row it
// records. A full window gets a quarter of RecordWindow more, so it
// slides to the front of its storage once per that many inputs rather
// than once per input.
func (c *Controller) tabRows(n int) int {
	r := c.Opts.RecordWindow
	switch {
	case n <= r/4:
		return r / 4
	case n < r:
		return r
	}
	return r + r/4
}

// putRow records one input, whose observations are obs: an outcome holds
// the first len(obs) active ramps'. Its row's other cells, the retired
// columns' among them, are missing.
func (c *Controller) putRow(obs []ramp.Observation) {
	w := len(c.nodes)
	if (c.tabEnd+1)*w > len(c.tab) {
		// Slide the rows that stay in the window to the front, into
		// more room while the window fills.
		keep := min(c.filled, c.Opts.RecordWindow-1)
		tab := c.tab
		if need := c.tabRows(keep+1) * w; need > len(tab) {
			tab = make([]ramp.Observation, need)
		}
		copy(tab, c.tab[(c.tabEnd-keep)*w:c.tabEnd*w])
		c.tab, c.tabEnd = tab, keep
	}
	row := c.tab[c.tabEnd*w : (c.tabEnd+1)*w]
	for i := copy(row[:c.cols], obs); i < w; i++ {
		row[i] = missing
	}
	c.tabEnd++
	c.filled = min(c.filled+1, c.Opts.RecordWindow)
}

// windowTable returns the replay table of the recorded window, oldest
// first, over the current active set: a view of the window table, valid
// until the next Observe.
func (c *Controller) windowTable() Table {
	c.syncTable()
	c.saving = savings(c.saving, c.Cfg)
	w := len(c.nodes)
	return Table{n: c.filled, cols: c.cols, stride: w, obs: c.tab[(c.tabEnd-c.filled)*w : c.tabEnd*w], saving: c.saving}
}
