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
// events FIFO in the order they took their numbers, their scheduling
// order unless reserved (below). Because that order is itself a
// deterministic function of the simulation inputs, an engine run is a
// pure function of its initial events — the root of the sweep's
// workers-1-vs-8 byte-identity guarantee.
//
// An event may take its place in that order before it enters the heap:
// Reserve hands out the next sequence number in a class as a Key, and
// ScheduleKey later schedules an event under it, so the event pops as
// if it had been scheduled when its key was reserved. Schedule is
// exactly Reserve followed by ScheduleKey. A reservation that is never
// scheduled costs nothing but its number, and the relative order of
// every other event is unchanged, since only the order of sequence
// numbers matters, never their values. This is how an actor skips an
// event that would do nothing while keeping the place of the same event
// should it turn out to have work after all. NextAt shows the time of
// the earliest pending event, so an actor can see that nothing else is
// due at the current instant.
//
// Memory is O(pending events), never O(trace): sources schedule one
// arrival of lookahead at a time, so the heap stays a handful of
// entries regardless of stream length (the mem-smoke bound).
//
// Allocation is O(peak pending events), never O(events fired): heap
// entries are pointer-free values in the heap slice, so its spare
// capacity is the freelist, and each entry's handler waits in a side
// table slot that pop clears and the next ScheduleKey reuses. Neither
// grows past the peak pending count, and sifting the heap copies plain
// memory with no GC write barrier. Actors implement Handler and
// schedule (handler, op, arg) triples instead of capturing state in
// closures.
package engine

import (
	"fmt"
	"math"
)

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

// event is one scheduled dispatch, a 32-byte value with no pointer in
// it: key packs the class above the sequence number, so (at, key)
// orders events by (time, class, sequence), and the handler waits in
// the loop's side table at hs[slot].
type event struct {
	at   float64
	key  uint64 // class<<seqBits | seq
	arg  uint64
	slot uint32
	op   uint8
}

// seqBits is the width of an event key's sequence number. Reserve
// panics before the sequence would carry into the class byte.
const seqBits = 56

// Key is an event's place among simultaneous events: its class above a
// sequence number that orders same-class events by reservation. Reserve
// never returns the zero Key, so callers may use it for "none".
type Key uint64

// Loop is a single-threaded discrete-event loop: a virtual clock in
// milliseconds and a deterministic min-heap of pending events. The zero
// value is not ready; use New.
type Loop struct {
	now  float64
	heap []event
	// hs holds each pending event's handler at its slot; free lists the
	// slots pop has released, for ScheduleKey to reuse.
	hs      []Handler
	free    []uint32
	seq     uint64
	fired   int
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

// NextAt returns the time of the earliest pending event, or +Inf when
// none is pending. Inside a callback the running event has already
// left the heap, so NextAt() > Now() means nothing else is due at the
// current instant.
func (l *Loop) NextAt() float64 {
	if len(l.heap) == 0 {
		return math.Inf(1)
	}
	return l.heap[0].at
}

// Fired returns the number of events Run has dispatched.
func (l *Loop) Fired() int { return l.fired }

// Reserve takes the next sequence number in class and returns it as
// the Key of an event not yet scheduled. ScheduleKey under that key
// pops the event as if Schedule had been called at the reservation:
// after every same-time same-class event scheduled before it, before
// every one scheduled after. The caller must schedule it, if at all,
// before the loop passes that place, at a time no earlier than Now.
func (l *Loop) Reserve(class Class) Key {
	l.seq++
	if l.seq >= 1<<seqBits {
		panic("engine: event sequence number overflow")
	}
	return Key(uint64(class)<<seqBits | l.seq)
}

// ScheduleKey enqueues h.OnEvent(at, op, arg) at virtual time at, in the
// place key reserved. This is the zero-alloc path: the event is a value
// appended into the heap slice's spare capacity and h takes a released
// slot of the handler table, so steady-state scheduling (pop one, push
// one) never allocates. Scheduling in the past panics: an actor that
// reacts to an event it should already have seen is a simulation bug,
// not a recoverable condition. Events at the current instant are legal
// and fire after the running callback returns, in key order.
func (l *Loop) ScheduleKey(at float64, key Key, h Handler, op uint8, arg uint64) {
	if at < l.now {
		panic(fmt.Sprintf("engine: scheduling at %g before now %g", at, l.now))
	}
	var slot uint32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
		l.hs[slot] = h
	} else {
		slot = uint32(len(l.hs))
		l.hs = append(l.hs, h)
	}
	l.heap = append(l.heap, event{at: at, key: uint64(key), arg: arg, slot: slot, op: op})
	l.up(len(l.heap) - 1)
}

// Schedule enqueues h.OnEvent(at, op, arg) at virtual time at in class
// class, after every same-time same-class event already scheduled. It
// is ScheduleKey under a fresh Reserve.
func (l *Loop) Schedule(at float64, class Class, h Handler, op uint8, arg uint64) {
	l.ScheduleKey(at, l.Reserve(class), h, op, arg)
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
		e, h := l.pop()
		if l.advance != nil && e.at > l.now {
			l.advance(l.now, e.at)
		}
		l.now = e.at
		l.fired++
		h.OnEvent(l.now, e.op, e.arg)
	}
}

// less orders the heap by (time, class, sequence).
func (l *Loop) less(i, j int) bool {
	a, b := &l.heap[i], &l.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
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

// pop removes the earliest event and returns it with its handler,
// releasing the handler's slot for the next ScheduleKey.
func (l *Loop) pop() (event, Handler) {
	top := l.heap[0]
	h := l.hs[top.slot]
	l.hs[top.slot] = nil
	l.free = append(l.free, top.slot)
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap = l.heap[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		if left >= n {
			return top, h
		}
		child := left
		if right < n && l.less(right, left) {
			child = right
		}
		if !l.less(child, i) {
			return top, h
		}
		l.heap[i], l.heap[child] = l.heap[child], l.heap[i]
		i = child
	}
}
