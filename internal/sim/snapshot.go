package sim

// Snapshots. The model checker expands one explored state into each of its
// successors: it snapshots the system at the state's choice point, takes
// one decision, and restores the snapshot before the next (see
// internal/mc). The engine's share is its clock, counters and event
// queue. A queued event is a handler, an argument and a tick; the argument
// points into the system that scheduled it (a transit, a timer's record, a
// core), so a snapshot holds those pointers as they are and is only ever
// restored into the engine that took it, whose owners restore what the
// pointers lead to.

// engineSnapshot is what Snapshot copies: every field Reset returns to its
// initial value but the insertion sequence, with the event slab and the
// overflow heap copied by value. The sequence only orders events of the same cycle,
// and an event queued after a restore orders after every restored one
// whether it draws the number it drew before or a higher one, so the
// counter just keeps rising.
type engineSnapshot struct {
	now, events   uint64
	slab          []slot
	free          int32
	tails         [ringSize]int32
	occ           uint64
	overflow      overflowHeap
	queued, stale int
	chooser       Chooser
	halted        bool
}

// Snapshot copies the engine's clock, event counts, event queue, chooser
// and halt latch into the engine's snapshot buffer, replacing any earlier
// snapshot, for Restore to return to. The Timers queued firings point at
// are their owners' to copy: every one lives in a record its controller
// restores by value, and whether a firing is dead is the timer's to say.
// The buffer keeps its storage, so snapshotting a queue no deeper than an
// earlier one allocates nothing. The HeapStats counts and the AtRunEnd
// hook are not part of a snapshot.
func (e *Engine) Snapshot() {
	if e.snap == nil {
		e.snap = new(engineSnapshot)
	}
	s := e.snap
	s.now, s.events = e.now, e.events
	s.slab = append(s.slab[:0], e.slab...)
	s.free, s.tails, s.occ = e.free, e.tails, e.occ
	s.overflow = append(s.overflow[:0], e.overflow...)
	s.queued, s.stale = e.queued, e.stale
	s.chooser, s.halted = e.chooser, e.halted
}

// Restore returns the engine to its last Snapshot: the events queued since
// are discarded without firing and the ones queued then are back, in the
// same order, with the same clock, counts, chooser and halt latch. The
// restored events' arguments are the objects they pointed at when the
// snapshot was taken; their owners restore those objects' contents, timers
// included, before the engine: an owner's restore may stop a timer, which
// the engine counts. The
// process-wide HeapStats counts are not rolled back.
func (e *Engine) Restore() {
	s := e.snap
	if n := len(s.slab); n < len(e.slab) {
		clear(e.slab[n:]) // drop the discarded events' callbacks and arguments
	}
	e.now, e.events = s.now, s.events
	e.slab = append(e.slab[:0], s.slab...)
	e.free, e.tails, e.occ = s.free, s.tails, s.occ
	e.overflow = append(e.overflow[:0], s.overflow...)
	e.queued, e.stale = s.queued, s.stale
	e.chooser, e.halted = s.chooser, s.halted
}

// Resume clears the halt latch a chooser set, so the next Step or Run asks
// the chooser again at the choice point it halted at, with the same
// choices.
func (e *Engine) Resume() { e.halted = false }

// QueuedArgs appends the argument of every queued event to dst, in slab
// order, and returns the extended slice. Snapshots use it to find the
// objects only a queued event refers to, such as a message waiting out a
// memory latency before its send.
func (e *Engine) QueuedArgs(dst []any) []any {
	for i := range e.slab {
		if arg := e.slab[i].arg; arg != nil {
			dst = append(dst, arg)
		}
	}
	return dst
}
