package engine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// funcHandler adapts a closure to Handler, so a test can schedule a
// one-off callback without declaring a handler type for it.
type funcHandler func(now float64)

func (f funcHandler) OnEvent(now float64, _ uint8, _ uint64) { f(now) }

// scheduleFunc schedules fn on l at time at in class c.
func scheduleFunc(l *Loop, at float64, c Class, fn func(now float64)) {
	l.Schedule(at, c, funcHandler(fn), 0, 0)
}

// TestPopOrderDeterministic pins the heap contract: events pop by time,
// then class, then scheduling order — regardless of insertion order.
func TestPopOrderDeterministic(t *testing.T) {
	l := New()
	var got []string
	rec := func(tag string) func(float64) {
		return func(now float64) { got = append(got, fmt.Sprintf("%s@%g", tag, now)) }
	}
	// Insert deliberately out of order.
	scheduleFunc(l, 5, 2, rec("wake"))
	scheduleFunc(l, 5, 1, rec("arr-b"))
	scheduleFunc(l, 2, 1, rec("early"))
	scheduleFunc(l, 5, 0, rec("window"))
	scheduleFunc(l, 5, 1, rec("arr-c")) // same time+class as arr-b: FIFO by schedule order
	l.Run()
	want := "early@2 window@5 arr-b@5 arr-c@5 wake@5"
	if s := fmt.Sprint(got); s != "["+want+"]" {
		t.Fatalf("pop order %v, want [%s]", got, want)
	}
}

// TestSameInstantSchedulingRanksByClass checks that an event scheduled
// from inside a callback at the current instant still ranks by class
// against already-pending same-time events: a source that emits the
// next arrival at an identical timestamp beats a pending replica wake.
func TestSameInstantSchedulingRanksByClass(t *testing.T) {
	l := New()
	var got []string
	scheduleFunc(l, 3, 2, func(float64) { got = append(got, "wake") })
	scheduleFunc(l, 3, 1, func(float64) {
		got = append(got, "arr-1")
		// Scheduled later than the wake, but class 1 < 2 wins at time 3.
		scheduleFunc(l, 3, 1, func(float64) { got = append(got, "arr-2") })
	})
	l.Run()
	if fmt.Sprint(got) != "[arr-1 arr-2 wake]" {
		t.Fatalf("same-instant scheduling order %v", got)
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	l := New()
	prev := -1.0
	n := 0
	var chain func(at float64)
	chain = func(at float64) {
		scheduleFunc(l, at, 0, func(now float64) {
			if now < prev {
				t.Fatalf("clock went backward: %g after %g", now, prev)
			}
			prev = now
			n++
			if n < 50 {
				chain(now + float64(n%3)) // includes zero-delay steps
			}
		})
	}
	chain(0)
	l.Run()
	if n != 50 {
		t.Fatalf("ran %d events, want 50", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("%d events left pending", l.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	l := New()
	scheduleFunc(l, 10, 0, func(now float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		scheduleFunc(l, now-1, 0, func(float64) {})
	})
	l.Run()
}

func TestRunInsideCallbackPanics(t *testing.T) {
	l := New()
	scheduleFunc(l, 0, 0, func(float64) {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		l.Run()
	})
	l.Run()
}

// TestFaultEventInterleaving drives the loop the way the fault-injected
// cluster runtime does: an arrival chain (class 0), wake/hold events
// (class 1), crash/restart transitions (class 2), and loss-timeout
// deadlines (class 3) all landing on shared instants. It pins that the
// (time, class, seq) pop order fully determines execution — two
// identical runs observe identical sequences — that same-instant events
// rank fault transitions after arrivals and wakes but before timeouts,
// and that Pending stays bounded by the live actors, never growing with
// the number of processed events.
func TestFaultEventInterleaving(t *testing.T) {
	run := func() (trace []string, maxPending int) {
		l := New()
		rec := func(tag string) func(float64) {
			return func(now float64) {
				trace = append(trace, fmt.Sprintf("%s@%g", tag, now))
				if p := l.Pending(); p > maxPending {
					maxPending = p
				}
			}
		}
		// Arrival source: one event of lookahead, rescheduling itself —
		// the streaming-source shape. Arrivals every 2ms.
		var arrive func(i int)
		arrive = func(i int) {
			scheduleFunc(l, float64(2*i), 0, func(now float64) {
				rec(fmt.Sprintf("arr%d", i))(now)
				// Each arrival requests a wake (hold/timeout style) at the
				// same instant and one 3ms out.
				scheduleFunc(l, now, 1, rec(fmt.Sprintf("wake%d", i)))
				scheduleFunc(l, now+3, 1, rec(fmt.Sprintf("hold%d", i)))
				if i < 19 {
					arrive(i + 1)
				}
			})
		}
		arrive(0)
		// A churn process: crash/restart pairs sharing instants with
		// arrivals (t=8 collides with arr4, t=20 with arr10).
		for _, at := range []float64{8, 20, 32} {
			scheduleFunc(l, at, 2, rec(fmt.Sprintf("crash@%g", at)))
			scheduleFunc(l, at+4, 2, rec(fmt.Sprintf("restart@%g", at+4)))
		}
		// Loss-detection timeouts at the same colliding instants.
		scheduleFunc(l, 8, 3, rec("timeout-a"))
		scheduleFunc(l, 20, 3, rec("timeout-b"))
		l.Run()
		return trace, maxPending
	}
	a, pa := run()
	b, pb := run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("identical fault schedules popped differently:\n%v\n%v", a, b)
	}
	if pa != pb {
		t.Fatalf("pending-watermark diverged: %d vs %d", pa, pb)
	}
	// Same-instant class ranking at t=8: the arrival admits first, its
	// wake batches, then the crash transition, then the loss timeout.
	order := map[string]int{}
	for i, e := range a {
		order[e] = i
	}
	for _, pair := range [][2]string{
		{"arr4@8", "wake4@8"},
		{"wake4@8", "crash@8@8"},
		{"crash@8@8", "timeout-a@8"},
		{"arr10@20", "crash@20@20"},
		{"crash@20@20", "timeout-b@20"},
	} {
		ia, oka := order[pair[0]]
		ib, okb := order[pair[1]]
		if !oka || !okb {
			t.Fatalf("trace missing %v (trace %v)", pair, a)
		}
		if ia >= ib {
			t.Fatalf("%s popped after %s", pair[0], pair[1])
		}
	}
	// Pending is O(live actors): one arrival of lookahead, a handful of
	// wakes, the static fault schedule — never O(events processed).
	if pa > 12 {
		t.Fatalf("pending watermark %d suggests events accumulate", pa)
	}
	if len(a) != 20*3+8 {
		t.Fatalf("ran %d events, want %d", len(a), 20*3+8)
	}
}

type ticker struct {
	period float64
	left   int
	fired  int
}

func (p *ticker) Start(l *Loop) { scheduleFunc(l, 0, 0, p.tick(l)) }

func (p *ticker) tick(l *Loop) func(float64) {
	return func(now float64) {
		p.fired++
		if p.left--; p.left > 0 {
			scheduleFunc(l, now+p.period, 0, p.tick(l))
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	l := New()
	a := &ticker{period: 2, left: 10}
	b := &ticker{period: 3, left: 10}
	l.Add(a)
	l.Add(b)
	l.Run()
	if a.fired != 10 || b.fired != 10 {
		t.Fatalf("tickers fired %d/%d, want 10/10", a.fired, b.fired)
	}
	if l.Now() != 27 { // slower ticker: 9 periods of 3ms
		t.Fatalf("final clock %g, want 27", l.Now())
	}
}

func TestOnAdvanceHook(t *testing.T) {
	l := New()
	type step struct{ prev, now float64 }
	var steps []step
	l.OnAdvance(func(prev, now float64) { steps = append(steps, step{prev, now}) })
	// Two events at t=5 (same instant: one advance), then t=9.
	scheduleFunc(l, 5, 0, func(now float64) {})
	scheduleFunc(l, 5, 1, func(now float64) {})
	scheduleFunc(l, 9, 0, func(now float64) {})
	l.Run()
	want := []step{{0, 5}, {5, 9}}
	if len(steps) != len(want) {
		t.Fatalf("advance fired %d times, want %d: %v", len(steps), len(want), steps)
	}
	for i, w := range want {
		if steps[i] != w {
			t.Fatalf("advance %d = %v, want %v", i, steps[i], w)
		}
	}
}

func TestOnAdvanceSeesPreAdvanceState(t *testing.T) {
	// The hook fires before the event at the new instant executes: an
	// event-scoped side effect at t=10 must not be visible to the hook
	// transitioning to t=10.
	l := New()
	fired := false
	l.OnAdvance(func(prev, now float64) {
		if now == 10 && fired {
			t.Fatal("advance hook ran after the t=10 event")
		}
	})
	scheduleFunc(l, 10, 0, func(now float64) { fired = true })
	l.Run()
	if !fired {
		t.Fatal("event did not run")
	}
}

func TestOnAdvanceDoesNotPerturbOrder(t *testing.T) {
	run := func(hook bool) []float64 {
		l := New()
		if hook {
			l.OnAdvance(func(prev, now float64) {})
		}
		var order []float64
		for _, at := range []float64{3, 1, 2, 2, 5} {
			at := at
			scheduleFunc(l, at, 0, func(now float64) { order = append(order, now) })
		}
		l.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event order differs at %d: %v vs %v", i, a, b)
		}
	}
}

// countHandler records dispatched (op, arg) pairs and reschedules
// itself until done — the pre-bound-handler shape hot actors use.
type countHandler struct {
	l     *Loop
	calls []uint64
	left  int
}

func (h *countHandler) OnEvent(now float64, op uint8, arg uint64) {
	h.calls = append(h.calls, uint64(op)<<32|arg)
	if h.left--; h.left > 0 {
		h.l.Schedule(now+1, Class(op), h, op, arg+1)
	}
}

// TestHandlerSchedule pins the handler API: op and arg round-trip
// through the heap, and handler events interleave with closure events
// by the same (time, class, seq) order.
func TestHandlerSchedule(t *testing.T) {
	l := New()
	h := &countHandler{l: l, left: 3}
	l.Schedule(0, 1, h, 7, 100)
	var closures []float64
	scheduleFunc(l, 1, 0, func(now float64) { closures = append(closures, now) })
	l.Run()
	want := []uint64{7<<32 | 100, 7<<32 | 101, 7<<32 | 102}
	if fmt.Sprint(h.calls) != fmt.Sprint(want) {
		t.Fatalf("handler calls %v, want %v", h.calls, want)
	}
	if fmt.Sprint(closures) != "[1]" {
		t.Fatalf("closure fired at %v, want [1]", closures)
	}
}

// selfPump reschedules itself n times without touching any per-event
// state — the steady-state pop-one-push-one shape.
type selfPump struct {
	l    *Loop
	left int
}

func (p *selfPump) OnEvent(now float64, op uint8, arg uint64) {
	if p.left--; p.left > 0 {
		p.l.Schedule(now+1, 0, p, op, arg)
	}
}

// TestScheduleSteadyStateZeroAlloc is the engine's alloc pin: once the
// heap has grown to its working set, pop-one-push-one scheduling through
// the handler API allocates nothing. A regression here silently erodes
// every BENCH_*.json row, so it fails loudly instead.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	l := New()
	p := &selfPump{l: l}
	// Warm the heap capacity.
	p.left = 100
	l.Schedule(0, 0, p, 0, 0)
	l.Run()
	avg := testing.AllocsPerRun(10, func() {
		p.left = 1000
		l.Schedule(l.Now(), 0, p, 0, 0)
		l.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state handler scheduling allocates %.1f allocs/run, want 0", avg)
	}
}

// orderProbe schedules events and records their dispatch, for pinning
// the pop order against a stable sort and the slot table's release.
// Every time is a multiple of 0.5 ms, so many events tie.
type orderProbe struct {
	l      *Loop
	r      *rng.Rand
	evs    []probeEvent // every scheduled event, in scheduling order
	fired  []uint64     // event ids (indices into evs) in dispatch order
	peak   int          // most events pending at once
	saw255 bool         // some event was drawn in class 255
}

const (
	probeEvents = 6000 // events scheduled in all, 2000 before Run
	probeSteps  = 40   // 0.5 ms steps an event lands within
)

type probeEvent struct {
	at    float64
	class Class
}

func (p *orderProbe) schedule(at float64, class Class) {
	p.l.Schedule(at, class, p, 0, uint64(len(p.evs)))
	p.evs = append(p.evs, probeEvent{at, class})
	p.saw255 = p.saw255 || class == 255
	p.peak = max(p.peak, p.l.Pending())
}

// OnEvent records the dispatch and, while events remain, schedules up to
// three more: at the current instant in this event's class or a later
// one, and at a later quantized instant in any class.
func (p *orderProbe) OnEvent(now float64, _ uint8, arg uint64) {
	p.fired = append(p.fired, arg)
	cur := p.evs[arg].class
	for k := p.r.Intn(4); k > 0 && len(p.evs) < probeEvents; k-- {
		if p.r.Bool(0.5) {
			p.schedule(now, cur+Class(p.r.Intn(256-int(cur))))
		} else {
			p.schedule(now+0.5*float64(1+p.r.Intn(probeSteps)), Class(p.r.Intn(256)))
		}
	}
}

// TestPopOrderMatchesStableSort pins the pop order on thousands of
// events: times quantized so many tie, classes over the whole uint8
// range, callbacks that schedule at the current instant. A callback
// schedules at its own instant only in its own class or a later one, so
// no event fires after one it sorts before, and the dispatch order must
// equal a stable sort of every scheduled event by (at, class) — stable
// keeps scheduling order, which is sequence order. After Run every
// handler slot must be released, and the slot table must be no larger
// than the most events ever pending.
func TestPopOrderMatchesStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		l := New()
		p := &orderProbe{l: l, r: rng.New(seed)}
		for range 2000 {
			p.schedule(0.5*float64(p.r.Intn(probeSteps)), Class(p.r.Intn(256)))
		}
		l.Run()
		if !p.saw255 {
			t.Fatalf("seed %d: no event drawn in class 255", seed)
		}
		if len(p.fired) != len(p.evs) {
			t.Fatalf("seed %d: dispatched %d of %d events", seed, len(p.fired), len(p.evs))
		}
		want := make([]int, len(p.evs))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := p.evs[want[i]], p.evs[want[j]]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.class < b.class
		})
		for i, id := range want {
			if p.fired[i] != uint64(id) {
				e, g := p.evs[id], p.evs[p.fired[i]]
				t.Fatalf("seed %d: dispatch %d is event %d (at %g class %d), want event %d (at %g class %d)",
					seed, i, p.fired[i], g.at, g.class, id, e.at, e.class)
			}
		}
		for slot, h := range l.hs {
			if h != nil {
				t.Fatalf("seed %d: slot %d still holds a handler after Run", seed, slot)
			}
		}
		if len(l.hs) > p.peak {
			t.Fatalf("seed %d: %d handler slots for at most %d pending events", seed, len(l.hs), p.peak)
		}
	}
}

// reserveProbe drives a loop through Schedule, Reserve and a later
// ScheduleKey, and records what it dispatched. Every event gets a ticket
// when it is scheduled or reserved, so the test's own bookkeeping, not
// the engine's keys, says where each event belongs.
type reserveProbe struct {
	l       *Loop
	r       *rng.Rand
	evs     []probeEvent // every event scheduled or reserved, by ticket
	keys    []Key        // each reserved event's key, by ticket
	entered []bool       // the event entered the heap
	done    []bool       // the event was dispatched
	fired   []uint64     // tickets in dispatch order
	waiting []int        // reserved events not yet in the heap
	late    int          // events scheduled after the callback that reserved them
	unused  int          // reservations never scheduled
}

// schedule either schedules an event at at in class c at once, or only
// reserves its place: then it is scheduled right away, in a later
// callback, or never.
func (p *reserveProbe) schedule(at float64, c Class) {
	id := len(p.evs)
	p.evs = append(p.evs, probeEvent{at, c})
	p.keys = append(p.keys, 0)
	p.entered = append(p.entered, false)
	p.done = append(p.done, false)
	switch p.r.Intn(4) {
	case 0:
		p.l.Schedule(at, c, p, 0, uint64(id))
		p.entered[id] = true
	case 1:
		p.keys[id] = p.l.Reserve(c)
		p.l.ScheduleKey(at, p.keys[id], p, 0, uint64(id))
		p.entered[id] = true
	default:
		p.keys[id] = p.l.Reserve(c)
		p.waiting = append(p.waiting, id)
	}
}

// OnEvent records the dispatch and checks NextAt against the events
// still in the heap. Then it settles the waiting reservations: each one
// whose time is still ahead is scheduled now or left waiting, and each
// one whose time has come is dropped, never scheduled. Last it
// schedules or reserves up to three more events, as orderProbe does.
func (p *reserveProbe) OnEvent(now float64, _ uint8, arg uint64) {
	p.fired = append(p.fired, arg)
	p.done[arg] = true
	pending := math.Inf(1)
	for id, in := range p.entered {
		if in && !p.done[id] {
			pending = min(pending, p.evs[id].at)
		}
	}
	if got := p.l.NextAt(); got != pending {
		panic(fmt.Sprintf("NextAt() = %g at %g, want %g", got, now, pending))
	}
	kept := p.waiting[:0]
	for _, id := range p.waiting {
		switch {
		case p.evs[id].at <= now:
			p.unused++
		case p.r.Bool(0.5):
			p.l.ScheduleKey(p.evs[id].at, p.keys[id], p, 0, uint64(id))
			p.entered[id] = true
			p.late++
		default:
			kept = append(kept, id)
		}
	}
	p.waiting = kept
	cur := p.evs[arg].class
	for k := p.r.Intn(4); k > 0 && len(p.evs) < reserveEvents; k-- {
		if p.r.Bool(0.5) {
			p.schedule(now, cur+Class(p.r.Intn(256-int(cur))))
		} else {
			p.schedule(now+0.5*float64(1+p.r.Intn(probeSteps)), Class(p.r.Intn(256)))
		}
	}
}

// reserveEvents bounds the events reserveProbe schedules or reserves,
// 800 of them before Run.
const reserveEvents = 2400

// TestReservedPopOrderMatchesReference pins Reserve and ScheduleKey: an
// event scheduled under a reserved key, in the callback that reserved
// it or in a later one, pops exactly where it would have popped had it
// been scheduled when its key was reserved, and a reservation never
// scheduled leaves every other event's order alone. The reference is a
// stable sort by (time, class) of the events that entered the heap, in
// ticket order, the order of the Schedule and Reserve calls. Times are
// quantized so many events tie across classes. NextAt is checked in
// every callback and on the empty loop, Fired against the dispatches,
// and every Key against zero, which callers may use for "none".
func TestReservedPopOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		l := New()
		if got := l.NextAt(); !math.IsInf(got, 1) {
			t.Fatalf("NextAt() = %g on an empty loop, want +Inf", got)
		}
		p := &reserveProbe{l: l, r: rng.New(seed)}
		for range 800 {
			p.schedule(0.5*float64(p.r.Intn(probeSteps)), Class(p.r.Intn(256)))
		}
		l.Run()
		p.unused += len(p.waiting)
		if p.late == 0 || p.unused == 0 {
			t.Fatalf("seed %d: %d late schedules and %d unused reservations, want both", seed, p.late, p.unused)
		}
		if got := l.NextAt(); !math.IsInf(got, 1) {
			t.Fatalf("seed %d: NextAt() = %g after Run, want +Inf", seed, got)
		}
		if l.Fired() != len(p.fired) {
			t.Fatalf("seed %d: Fired() = %d, dispatched %d", seed, l.Fired(), len(p.fired))
		}
		var want []int
		for id, in := range p.entered {
			if in {
				want = append(want, id)
			}
			if p.keys[id] == 0 && !in {
				t.Fatalf("seed %d: event %d neither scheduled nor reserved", seed, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := p.evs[want[i]], p.evs[want[j]]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.class < b.class
		})
		if len(p.fired) != len(want) {
			t.Fatalf("seed %d: dispatched %d of the %d events scheduled", seed, len(p.fired), len(want))
		}
		for i, id := range want {
			if p.fired[i] != uint64(id) {
				e, g := p.evs[id], p.evs[p.fired[i]]
				t.Fatalf("seed %d: dispatch %d is event %d (at %g class %d), want event %d (at %g class %d)",
					seed, i, p.fired[i], g.at, g.class, id, e.at, e.class)
			}
		}
	}
}

// TestScheduleSequenceOverflowPanics pins the key layout's limit: the
// sequence number lives below the class byte, so Schedule panics rather
// than let it carry into the class.
func TestScheduleSequenceOverflowPanics(t *testing.T) {
	l := New()
	l.seq = 1<<seqBits - 2
	l.Schedule(0, 0, funcHandler(func(float64) {}), 0, 0) // takes the last sequence number
	defer func() {
		if msg := recover(); msg != "engine: event sequence number overflow" {
			t.Fatalf("recovered %v, want the overflow panic", msg)
		}
	}()
	l.Schedule(0, 0, funcHandler(func(float64) {}), 0, 0)
}

// BenchmarkSchedulePop times the heap in steady state: with depth events
// pending, each op pops the earliest and schedules a replacement at a
// pseudo-random later instant, so the heap never changes size. No event
// is dispatched, so the handler is a placeholder.
func BenchmarkSchedulePop(b *testing.B) {
	for _, depth := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			l := New()
			x := uint64(1)
			later := func() float64 { // xorshift64, up to 1 s ahead
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return float64(x % 1000)
			}
			h := &selfPump{l: l}
			for i := 0; i < depth; i++ {
				l.Schedule(later(), Class(i%2), h, 0, 0)
			}
			b.ReportAllocs()
			for b.Loop() {
				e, h := l.pop()
				l.now = e.at
				l.Schedule(e.at+later(), Class(e.key>>seqBits), h, e.op, e.arg)
			}
		})
	}
}
