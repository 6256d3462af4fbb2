// Package engine is the shared discrete-event core of the simulators:
// one virtual clock, one binary event heap, and a deterministic pop
// order. The serving cluster runtime and the generative KV-block runtime
// are both built on it, so "one clock, one heap, all actors advanced
// together in a single pass" holds for every simulation in the repo.
//
// Determinism is the load-bearing property. Events pop ordered by
// (time, class, sequence): the class ranks simultaneous events of
// different kinds (the serving cluster admits an arrival before the
// replica wake that batches it; the generative runtime queues an
// arrival before the milestone that may admit it), and the
// monotonically increasing sequence number makes same-time same-class
// events FIFO in scheduling order. Because scheduling order is itself a
// deterministic function of the simulation inputs, an engine run is a
// pure function of its initial events — the root of the sweep's
// workers-1-vs-8 byte-identity guarantee.
//
// Memory is O(pending events), never O(trace): sources schedule one
// arrival of lookahead at a time, so the heap stays a handful of
// entries regardless of stream length (the mem-smoke bound).
//
// Allocation is O(peak pending events), never O(events fired): events
// are plain values in the heap slice, so the slice's spare capacity is
// the freelist — a popped slot is reused by the next Schedule with no
// per-event allocation. Actors implement Handler and schedule
// (handler, op, arg) triples instead of capturing state in closures.
package engine

import "fmt"

// Class ranks simultaneous events: at equal timestamps, lower classes
// fire first. Callers define their own ordering; the serving cluster
// uses arrival < wake, genserve uses arrival < milestone. Changing an
// existing caller's class numbering shifts same-instant pop order and
// with it every downstream byte-identity pin — add new classes after
// the existing ones.
type Class uint8

// Handler receives dispatched events. One long-lived handler serves
// many events, discriminated by the caller-defined op code and packed
// arg — the zero-alloc replacement for capturing state in a closure.
type Handler interface {
	OnEvent(now float64, op uint8, arg uint64)
}

// Event is one scheduled dispatch. Events are values: the heap slice
// owns them, and popped slots are recycled by later Schedules.
type event struct {
	at    float64
	seq   uint64
	arg   uint64
	h     Handler
	class Class
	op    uint8
}

// Loop is a single-threaded discrete-event loop: a virtual clock in
// milliseconds and a deterministic min-heap of pending events. The zero
// value is not ready; use New.
type Loop struct {
	now     float64
	heap    []event
	seq     uint64
	inRun   bool
	advance func(prev, now float64)
}

// New returns an empty loop at time zero.
func New() *Loop { return &Loop{} }

// Now returns the current virtual time in milliseconds. Outside an
// event callback it is the time of the last completed event.
func (l *Loop) Now() float64 { return l.now }

// Pending returns the number of scheduled events.
func (l *Loop) Pending() int { return len(l.heap) }

// Schedule enqueues h.OnEvent(at, op, arg) at virtual time `at`. This
// is the zero-alloc path: the event is a value appended into the heap
// slice's spare capacity, so steady-state scheduling (pop one, push
// one) never allocates. Scheduling in the past panics: an actor that
// reacts to an event it should already have seen is a simulation bug,
// not a recoverable condition. Events at the current instant are legal
// and fire after the running callback returns, in (class,
// scheduling-order) rank.
func (l *Loop) Schedule(at float64, class Class, h Handler, op uint8, arg uint64) {
	if at < l.now {
		panic(fmt.Sprintf("engine: scheduling at %g before now %g", at, l.now))
	}
	l.seq++
	l.heap = append(l.heap, event{at: at, class: class, seq: l.seq, h: h, op: op, arg: arg})
	l.up(len(l.heap) - 1)
}

// Process is a simulation actor: Start schedules its initial event(s).
// It exists so composites (a cluster, a KV-block runtime, a fault model)
// plug into one loop uniformly; actors interact afterwards by
// scheduling further events from their callbacks.
type Process interface {
	Start(l *Loop)
}

// Add starts a process on the loop.
func (l *Loop) Add(p Process) { p.Start(l) }

// OnAdvance registers fn to run whenever Run is about to advance the
// clock to a strictly later instant, with the previous and new times.
// It fires before the event at the new instant executes, so fn sees the
// simulation state as of `prev` — the hook observability samplers hang
// off. Unlike a self-rescheduling tick process, an advance hook adds no
// heap events and never extends the clock past the last real event, so
// registering one cannot perturb event order, sequence numbers, or
// end-of-run bookkeeping. Passing nil clears the hook. Only one hook is
// supported; composing is the caller's job.
func (l *Loop) OnAdvance(fn func(prev, now float64)) { l.advance = fn }

// Run pops events in deterministic order until the heap is empty,
// advancing the clock to each event's timestamp.
func (l *Loop) Run() {
	if l.inRun {
		panic("engine: Run called from inside an event callback")
	}
	l.inRun = true
	defer func() { l.inRun = false }()
	for len(l.heap) > 0 {
		e := l.pop()
		if l.advance != nil && e.at > l.now {
			l.advance(l.now, e.at)
		}
		l.now = e.at
		e.h.OnEvent(l.now, e.op, e.arg)
	}
}

// less orders the heap by (time, class, sequence).
func (l *Loop) less(i, j int) bool {
	a, b := l.heap[i], l.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

func (l *Loop) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !l.less(i, parent) {
			return
		}
		l.heap[i], l.heap[parent] = l.heap[parent], l.heap[i]
		i = parent
	}
}

func (l *Loop) pop() event {
	top := l.heap[0]
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap[n].h = nil // release the handler reference; the slot itself is reused
	l.heap = l.heap[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		if left >= n {
			return top
		}
		child := left
		if right < n && l.less(right, left) {
			child = right
		}
		if !l.less(child, i) {
			return top
		}
		l.heap[i], l.heap[child] = l.heap[child], l.heap[i]
		i = child
	}
}
