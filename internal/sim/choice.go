// Model-checking choice points.
//
// In a normal run the engine fires events strictly in (time, sequence)
// order, which is exactly one interleaving of the protocol. The model
// checker (internal/mc) needs to explore the others. The hook is small:
// producers mark selected events as *choice events* (the network marks
// final message deliveries, see noc.Config.ChoiceDelivery), and when a
// Chooser is installed, any step whose earliest pending event is a choice
// event is resolved by the chooser instead of by timestamp order.
//
// The engine does not offer every pending choice event: each choice event
// carries a channel key, and only the head (earliest by (time, sequence))
// event of each channel is eligible. For the network this encodes the
// point-to-point ordering guarantee the protocols are built on — messages
// on the same (source, destination, class) channel may not overtake each
// other, so delivering a non-head event would explore physically
// impossible interleavings and report false violations.
//
// Time under a chooser stays monotone but becomes an abstraction: the
// chosen event fires at the timestamp of the earliest pending choice
// (the heap minimum), not at its own nominal arrival time. Non-choice
// events (timers, core issue slots, intermediate hops) still fire in
// timestamp order when they are the heap minimum, so a timeout only fires
// on paths where every earlier-timed delivery choice has been consumed —
// bounded-delay network semantics. Arbitrarily late delivery beyond a
// timeout is modeled explicitly as a dropped message (Decision.Drop)
// followed by the protocol's reissue path.
package sim

import "sort"

// Choice is one eligible decision at a choice point: the head event of one
// ordered channel. Key identifies the channel, Info is the opaque payload
// the producer attached (the network uses the message fingerprint), At is
// the event's nominal timestamp, and CanDrop reports whether the producer
// supplied a drop path for it.
type Choice struct {
	Key     uint64
	Info    uint64
	At      uint64
	CanDrop bool
}

// Decision is a chooser's answer: fire choices[Index] (with Drop selecting
// its loss path instead of delivery), or Halt the engine without firing
// anything — Step returns false and the run can be inspected mid-state.
type Decision struct {
	Index int
	Drop  bool
	Halt  bool
}

// Chooser resolves choice points. choices is ordered deterministically (by
// the events' (time, sequence)) and is only valid for the duration of the
// call — the engine reuses the backing array.
type Chooser interface {
	Choose(now uint64, choices []Choice) Decision
}

// SetChooser installs (or with nil removes) the engine's chooser. With no
// chooser installed, choice events fire like plain events in timestamp
// order, so a system built with choice scheduling behaves identically to a
// normal run.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Halted reports whether a chooser halted the engine. A halted engine
// executes no further events.
func (e *Engine) Halted() bool { return e.halted }

// ScheduleChoiceAt schedules a choice event at absolute cycle at. fn is the
// delivery callback, dropFn (optional) the loss callback; key names the
// event's ordered channel and info is carried to the chooser verbatim.
// Scheduling in the past is a programming error and panics, as with
// ScheduleCallAt.
func (e *Engine) ScheduleChoiceAt(at uint64, fn, dropFn func(arg any, tick uint64), arg any, tick, key, info uint64) {
	if at < e.now {
		e.ScheduleCallAt(at, fn, arg, tick) // panics with the standard message
		return
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, fn: fn, arg: arg, tick: tick, choice: true, key: key, info: info, dropFn: dropFn})
}

// stepChoice resolves one choice point: gather the per-channel head events,
// present them to the chooser in deterministic order, and fire (or drop)
// the chosen one at the heap minimum's timestamp.
func (e *Engine) stepChoice() bool {
	q := e.pq
	if e.headScratch == nil {
		e.headScratch = make(map[uint64]int)
	}
	heads := e.headScratch
	for k := range heads {
		delete(heads, k)
	}
	for i := range q {
		if !q[i].choice {
			continue
		}
		if j, ok := heads[q[i].key]; !ok || q.less(i, j) {
			heads[q[i].key] = i
		}
	}
	idxs := e.idxScratch[:0]
	for _, i := range heads {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return q.less(idxs[a], idxs[b]) })
	choices := e.choiceScratch[:0]
	for _, i := range idxs {
		choices = append(choices, Choice{Key: q[i].key, Info: q[i].info, At: q[i].at, CanDrop: q[i].dropFn != nil})
	}
	e.idxScratch, e.choiceScratch = idxs, choices

	minAt := q[0].at
	d := e.chooser.Choose(minAt, choices)
	if d.Halt {
		e.halted = true
		return false
	}
	if d.Index < 0 || d.Index >= len(idxs) {
		panic("sim: chooser decision index out of range")
	}
	ev := e.pq.removeAt(idxs[d.Index])
	e.now = minAt
	e.events++
	if d.Drop {
		if ev.dropFn == nil {
			panic("sim: chooser drop decision for an undroppable choice")
		}
		ev.dropFn(ev.arg, ev.tick)
	} else {
		ev.fn(ev.arg, ev.tick)
	}
	e.maybeCompact()
	return true
}

// removeAt removes and returns the event at heap index i, restoring the
// heap property. The vacated slot is cleared like pop's.
func (h *eventHeap) removeAt(i int) event {
	q := *h
	n := len(q) - 1
	ev := q[i]
	q[i] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if i < n {
		h.fix(i)
	}
	return ev
}

// fix restores the heap property around index i after its value changed:
// sift down first, then up if the element did not move.
func (h *eventHeap) fix(i int) {
	if h.siftDown(i) == i {
		h.siftUp(i)
	}
}
