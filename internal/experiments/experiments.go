// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4). Each experiment is registered under the paper
// artifact's id ("fig12", "table2", ...) and returns one or more Tables
// whose rows mirror what the paper reports. Absolute numbers come from
// the simulator substrate and are not expected to match the authors'
// testbed; the shapes — who wins, by roughly what factor, where
// crossovers fall — are the reproduction target.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table is one reproduced artifact (or panel of one).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Generator produces the tables of one experiment.
type Generator func() []Table

var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string) ([]Table, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return g(), nil
}

// Formatting helpers.
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Default experiment scales: large enough for the adaptation loops to
// reach steady state, small enough to regenerate every artifact in
// minutes on a laptop.
const (
	cvFrames   = 12000
	nlpSamples = 20000
	genSeqs    = 500
)

// cvStream builds one of the eight videos at 30fps.
func cvStream(video int, seed uint64) *workload.Stream {
	return workload.Video(video, cvFrames, 30, seed)
}

// cvStreamFor builds a video paired with a model, capping the frame rate
// so the load is sustainable with ramps deployed — the §4.1 pairing
// criterion (vanilla serving must not drop >20%). This only matters for
// resnet101, whose 33.3ms bs=1 latency sits exactly at the 30fps frame
// period; every other CV model keeps the full 30fps.
func cvStreamFor(m *model.Model, video int, seed uint64) *workload.Stream {
	fps := 30.0
	capacity := 1000 / (m.Latency(1) * 1.03) // headroom for the ramp budget
	if fps > 0.97*capacity {
		fps = 0.97 * capacity
	}
	return workload.Video(video, cvFrames, fps, seed)
}

// nlpStream builds a classification NLP workload with MAF arrivals at
// the model's sustainable rate.
func nlpStream(name string, m *model.Model, seed uint64) *workload.Stream {
	s, err := workload.ByName(name, nlpSamples, trace.TargetQPS(m), seed)
	if err != nil {
		panic(err)
	}
	return s
}

// distFrom wraps a slice in a metrics distribution.
func distFrom(vs []float64) *metrics.Dist {
	d := metrics.NewDist(len(vs))
	d.AddAll(vs)
	return d
}

// servePair runs vanilla and Apparate over the same stream on Clockwork
// with the model's default SLO, Apparate calibrated to the stream's
// kind. Both runs share m, as every handler an experiment builds shares
// its model: a Model's fields are fixed once it is built, and the graph
// analysis it caches on first use is a pure function of the graph.
func servePair(m *model.Model, stream *workload.Stream,
	budget, acc float64) (vanilla, apparate *serving.Stats) {
	opts := serving.Options{Platform: serving.Clockwork, SLOms: m.SLO()}
	vanilla = serveVanilla(m, stream, opts)
	h := serving.NewApparate(m, exitsim.ProfileFor(m, stream.Kind), budget, controller.Config{AccConstraint: acc})
	apparate = serving.Run(stream.Iter(), h, opts)
	return vanilla, apparate
}

// serveVanilla serves the original model over the stream. Vanilla
// serving never reads a sample, so it runs on the stream's sample-free
// pass: the same arrivals, no sample draws.
func serveVanilla(m *model.Model, stream *workload.Stream, opts serving.Options) *serving.Stats {
	return serving.Run(stream.WithoutSamples().Iter(), &serving.VanillaHandler{Model: m}, opts)
}
