package perf

import (
	"os"
	"time"

	"repro/internal/sweep"
)

// RunLayers runs the pass with every scenario composed from the layers'
// public functions (static-ee cells with probes), spans kept in memory,
// and returns its Report: the composed results' hashes, which must equal
// an end-to-end pass's, the spans, and the per-layer metrics.
func (p *Pass) RunLayers() *Report {
	base := time.Now()
	n := p.Units()
	units := make([]unit, n)
	tracers := make([]*tracer, n)
	stats := make([]layerStats, n)
	var wall time.Duration
	if p.W.Sequential() {
		for i, c := range p.cells {
			tracers[i] = &tracer{base: base, id: i}
			units[i] = runCell(c, tracers[i])
			stats[i].exits = tracers[i].exits
		}
		wall = time.Since(base)
	} else {
		wall = pool(n, Workers, func(i int) {
			t := &tracer{base: base, id: i}
			tracers[i] = t
			sc := p.scenarios[i]
			dir := ""
			if p.W.Traced {
				d, err := os.MkdirTemp(p.TmpDir, "obs-")
				if err != nil {
					units[i] = failedUnit(sc, err)
					return
				}
				defer os.RemoveAll(d)
				dir = d
			}
			res, ls := composeScenario(sc, t, dir)
			ls.exits = t.exits
			stats[i] = ls
			units[i] = scenarioUnit(res, time.Duration(spanTotal(t.spans, "scenario")))
		})
	}
	rep := p.report(units, wall)
	for _, t := range tracers {
		off := len(rep.Spans)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			rep.Spans = append(rep.Spans, s)
		}
	}
	for k, v := range layerMetrics(rep.Spans, units, stats) {
		rep.Metrics[k] = v
	}
	return rep
}

// spanTotal sums the TotalNS of the named spans.
func spanTotal(spans []Span, name string) int64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.TotalNS
		}
	}
	return ns
}

// spanSums aggregates a pass's spans by name; child[i] is the time
// span i's children cover, so its self time is TotalNS − child[i].
type spanSums struct {
	total, calls map[string]float64
	child        []int64
}

func sumSpans(spans []Span) spanSums {
	s := spanSums{total: map[string]float64{}, calls: map[string]float64{}, child: make([]int64, len(spans))}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			s.child[sp.Parent] += sp.TotalNS
		}
		s.total[sp.Name] += float64(sp.TotalNS)
		s.calls[sp.Name] += float64(sp.Calls)
	}
	return s
}

// layerMetrics derives the per-layer metrics of a layers pass. Shares,
// fractions and counts are reported for every workload (0 where the
// layer is bypassed); a time per call or per request is reported only
// where the layer ran.
func layerMetrics(spans []Span, units []unit, stats []layerStats) map[string]float64 {
	s := sumSpans(spans)
	m := map[string]float64{}
	n := float64(len(units))
	scenarioNS := s.total["scenario"]
	perCall := func(metric, span string, unit float64) {
		if c := s.calls[span]; c > 0 {
			m[metric] = s.total[span] / c / unit
		}
	}

	// Every workload looks up models, sets up, drains its streams and
	// summarizes its runs.
	m["model.by_name_ms"] = s.total["model.by_name"] / n / 1e6
	m["core.setup_ms"] = s.total["core.setup"] / n / 1e6
	m["metrics.summary_us"] = s.total["metrics.summary"] / n / 1e3
	perCall("workload.next_ns", "workload.next", 1)
	perCall("workload.token_sample_ns", "workload.token_sample", 1)

	// Requests per unit; generative runs belong to genserve, the rest to
	// serving.
	req := make([]float64, len(units))
	gen := make([]bool, len(units))
	for i, u := range units {
		switch r := u.out.(type) {
		case CellResult:
			req[i] = float64(r.Requests)
		case sweep.Result:
			req[i], gen[i] = float64(r.Requests), r.Generative
		}
	}
	var vanillaNS, vanillaReq, selfNS, appReq, staticNS, staticReq float64
	var classicNS, kvNS, tracedNS float64
	for i, sp := range spans {
		u, self := sp.Scenario, float64(sp.TotalNS-s.child[i])
		switch {
		case sp.Name == "vanilla_run" && !gen[u]:
			vanillaNS, vanillaReq = vanillaNS+self, vanillaReq+req[u]
		case sp.Name == "apparate_run" && !gen[u]:
			selfNS, appReq = selfNS+self, appReq+req[u]
			if stats[u].untracedRunNS > 0 {
				tracedNS += float64(sp.TotalNS)
			}
		case sp.Name == "apparate_run" && stats[u].kv:
			kvNS += float64(sp.TotalNS)
		case sp.Name == "apparate_run":
			classicNS += float64(sp.TotalNS)
		case sp.Name == "static_run":
			staticNS, staticReq = staticNS+float64(sp.TotalNS), staticReq+req[u]
		}
	}

	// Serving, ramps and the controller.
	if vanillaReq > 0 {
		m["serving.vanilla_ns_per_req"] = vanillaNS / vanillaReq
	}
	if appReq > 0 {
		m["serving.self_ns_per_req"] = selfNS / appReq
	}
	perCall("ramp.evaluate_ns", "ramp.evaluate", 1)
	perCall("controller.observe_ns", "controller.observe", 1)
	perCall("controller.tune_round_us", "controller.tune_round", 1e3)
	perCall("controller.adjust_round_us", "controller.adjust_round", 1e3)
	var exits float64
	for _, ls := range stats {
		exits += float64(ls.exits)
	}
	m["ramp.exit_frac"] = ratio(exits, s.calls["ramp.evaluate"])
	m["ramp.share"] = ratio(s.total["ramp.evaluate"], scenarioNS)
	m["controller.share"] = ratio(s.total["controller.observe"], scenarioNS)
	m["controller.tune_rounds_per_kreq"] = ratio(s.calls["controller.tune_round"]*1000, appReq)
	m["controller.adjust_rounds_per_kreq"] = ratio(s.calls["controller.adjust_round"]*1000, appReq)

	// Cluster runtime diagnostics, deterministic for a seed, and the obs
	// sinks of the traced workload.
	var class, classReq, drops, misses, retries, hedges, wasted, crashes, scaleUps float64
	var events, obsBytes, retained, untracedNS float64
	// Generative KV runtime, deterministic for a seed.
	var classicTok, kvTok, kvSeqs, pools, util, preempts, prefixSeqs, prefixHits, queue, kvRuns float64
	for i, u := range units {
		r, ok := u.out.(sweep.Result)
		if !ok {
			continue
		}
		ls := stats[i]
		if !r.Generative {
			class++
			classReq += req[i]
			drops += r.Apparate.DropRate
			misses += r.Apparate.SLOMissRate
			retries += float64(r.Retries)
			hedges += float64(r.Hedges)
			wasted += float64(ls.hedgeWasted)
			crashes += float64(r.Crashes)
			scaleUps += float64(r.ScaleUps)
			events += float64(ls.obsEvents)
			obsBytes += float64(ls.obsBytes)
			retained = max(retained, retainedMiB(ls.obsEvents))
			untracedNS += float64(ls.untracedRunNS)
			continue
		}
		if !ls.kv {
			classicTok += float64(ls.tokens)
			continue
		}
		kvRuns++
		kvTok += float64(ls.tokens)
		kvSeqs += req[i]
		preempts += float64(r.Preemptions)
		queue += r.QueueMS
		if r.Scenario.KVBlocks > 0 {
			pools++
			util += r.KVUtil
		}
		if r.Scenario.PrefixHit > 0 {
			prefixSeqs += req[i]
			prefixHits += float64(r.PrefixHits)
		}
	}
	m["serving.drop_frac"] = ratio(drops, class)
	m["serving.slo_miss_frac"] = ratio(misses, class)
	m["serving.retries_per_kreq"] = ratio(retries*1000, classReq)
	m["serving.hedges_per_kreq"] = ratio(hedges*1000, classReq)
	m["serving.hedge_waste_frac"] = ratio(wasted, hedges)
	m["serving.crashes"] = crashes
	m["serving.scale_ups"] = scaleUps
	m["obs.events_per_req"] = ratio(events, classReq)
	m["obs.retained_mib"] = retained
	m["obs.bytes_per_req"] = ratio(obsBytes, classReq)
	if s.calls["obs.write"] > 0 {
		m["obs.write_ms"] = s.total["obs.write"] / n / 1e6
	}
	if untracedNS > 0 {
		m["obs.overhead_frac"] = tracedNS/untracedNS - 1
	} else {
		m["obs.overhead_frac"] = 0
	}

	// Static-EE baselines.
	perCall("baselines.tune_shared_ms", "baselines.tune_shared", 1e6)
	perCall("baselines.tune_per_ramp_ms", "baselines.tune_per_ramp", 1e6)
	perCall("baselines.tune_oracle_ms", "baselines.tune_oracle", 1e6)
	if staticReq > 0 {
		m["baselines.serve_ns"] = staticNS / staticReq
	}
	tune := s.total["baselines.tune_shared"] + s.total["baselines.tune_per_ramp"] + s.total["baselines.tune_oracle"]
	m["baselines.tune_share"] = ratio(tune, scenarioNS)

	// Generative serving.
	if classicTok > 0 {
		m["genserve.classic_ns_per_token"] = classicNS / classicTok
	}
	if kvTok > 0 {
		m["genserve.kv_ns_per_token"] = kvNS / kvTok
	}
	if tok := classicTok + kvTok; tok > 0 {
		m["genserve.self_ns_per_token"] = (classicNS + kvNS - s.total["genserve.decide"]) / tok
	}
	perCall("genserve.decide_ns", "genserve.decide", 1)
	m["genserve.decide_share"] = ratio(s.total["genserve.decide"], scenarioNS)
	m["genserve.kv_util"] = ratio(util, pools)
	m["genserve.preempt_per_kseq"] = ratio(preempts*1000, kvSeqs)
	m["genserve.prefix_hit_frac"] = ratio(prefixHits, prefixSeqs)
	m["genserve.queue_ms"] = ratio(queue, kvRuns)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
