package serving

import (
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkRun times whole single-replica runs — resnet18 on video-0,
// 8,000 frames at 30 fps on Clockwork — through Run, the cluster runtime
// at width one, and through refRun, the time-stepped loop Run replaced,
// for vanilla and Apparate handlers. It reports ns per simulated
// request. On this light stream Run fires one engine event per request,
// its arrival, so the gap between the two runtimes is the event
// engine's cost at width one: on 2 CPUs vanilla read 205–256 ns per
// request against refRun's 175–239, where three events per request read
// 247–362 against 170–236. Building each run's handler is timed too.
func BenchmarkRun(b *testing.B) {
	m := model.ResNet18()
	prof := exitsim.ProfileFor(m, exitsim.KindVideo)
	s := workload.Video(0, 8000, 30, 1)
	opts := Options{Platform: Clockwork, SLOms: m.SLO()}
	handlers := []struct {
		name string
		mk   func() Handler
	}{
		{"vanilla", func() Handler { return &VanillaHandler{Model: m} }},
		{"apparate", func() Handler { return NewApparate(m, prof, 0.02, controller.Config{}) }},
	}
	runtimes := []struct {
		name string
		run  func(*workload.Iter, Handler, Options) *Stats
	}{{"ref", refRun}, {"run", Run}}
	for _, hc := range handlers {
		for _, rt := range runtimes {
			b.Run(hc.name+"/"+rt.name, func(b *testing.B) {
				b.ReportAllocs()
				reqs := 0
				for b.Loop() {
					reqs += rt.run(s.Iter(), hc.mk(), opts).Total
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/request")
			})
		}
	}
}

// BenchmarkDispatch times the choice of an arrival's target replica,
// clusterSim.pickAmong over every active replica, under each policy at
// 1, 16 and 64 replicas. Each bert-base replica holds 0–7 queued
// requests behind an in-flight batch of 1–4 that ends 0–2 ms after the
// dispatch instant, the state least-loaded and join-shortest-queue
// read. It reports ns per dispatch.
func BenchmarkDispatch(b *testing.B) {
	m := model.BERTBase()
	for _, p := range []Dispatch{RoundRobin, LeastLoaded, JoinShortestQueue} {
		for _, width := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/%d", p, width), func(b *testing.B) {
				c := &clusterSim{
					opts: ClusterOptions{Dispatch: p, Replicas: width},
					base: Options{Platform: Clockwork, SLOms: m.SLO()}.withDefaults(),
					mk:   func(int) Handler { return &VanillaHandler{Model: m} },
				}
				c.setActive(width)
				const now = 100.0
				for j, r := range c.replicas {
					r.queue = make([]workload.Request, j*5%8)
					r.busyUntil = now + float64(j%3)
					r.inflight = 1 + j%4
				}
				b.ReportAllocs()
				for b.Loop() {
					c.pickAmong(c.ids[:c.active], now)
				}
			})
		}
	}
}

// BenchmarkFaultArbiter times the fault runtime's outstanding-request
// table: per request, faultMode's insert for its arrival, a lookup as a
// copy resolves, and del once it has, over a steady window of 8, 64 and
// 1,024 outstanding requests. It reports ns per request.
func BenchmarkFaultArbiter(b *testing.B) {
	for _, window := range []int{8, 64, 1024} {
		b.Run(fmt.Sprint(window), func(b *testing.B) {
			fm := &faultMode{pend: newPendTable(64)}
			id := 0
			for ; id < window; id++ {
				fm.insert(workload.Request{ID: id})
			}
			step := func() {
				fm.insert(workload.Request{ID: id})
				if fm.lookup(id-window/2) == nil {
					b.Fatalf("request %d left the window early", id-window/2)
				}
				fm.del(id - window)
				id++
			}
			step() // the table's last doubling happens here, untimed
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
			if fm.npend != window {
				b.Fatalf("%d requests outstanding, want %d", fm.npend, window)
			}
		})
	}
}
