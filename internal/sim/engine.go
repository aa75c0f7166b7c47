// Package sim provides a deterministic discrete-event simulation engine:
// the clock every other package runs on.
//
// Events are executed in order of (time, insertion sequence), so two runs
// with the same inputs produce identical event interleavings — the
// property the whole module's reproducibility (golden traces, byte-stable
// experiment output, parallel sweeps) rests on. All protocol controllers,
// the network model and the fault injector are driven by a single Engine;
// Engine.Now also timestamps the structured event log (package obs).
//
// Nearly every event is due a few cycles ahead (a cache or network hop);
// the only long delays are memory latency and the fault-detection timers.
// The event queue is shaped for that (queue.go). Events due fewer than W =
// 64 cycles ahead go to a ring of W cycle buckets, one per cycle, each a
// FIFO list; the first occupied bucket is found from an occupancy bitmap
// with one TrailingZeros. Later events go to a small overflow heap of
// {at, seq, slot} keys. Payloads live in a slab and never move: freed
// slots are recycled through a free list threaded through the same slab,
// so scheduling is allocation-free once the slab has reached the
// simulation's peak queue depth. Step fires whichever of the ring's first
// event and the heap's top comes first by (at, seq), and that merge is
// exact:
//
//   - every queued ring event lies in [now, now+W), so one bucket only
//     ever holds one cycle;
//   - events enter a bucket in sequence order;
//   - an overflow event due in some cycle was scheduled at least W cycles
//     before it, earlier than any ring event for that cycle, so it has
//     the smaller sequence number and wins the tie.
//
// The queue depth counts live events only: the timer events a re-arm or
// Stop leaves behind are compacted out of both structures once they make
// up half of it (see compact).
//
// Every event is a handler, an argument and a tick (ScheduleCall): the
// handler is package-level or built once by its owner, and the argument
// carries the state, so a queued event is data, not a closure.
//
// Besides the raw event queue the package provides the two utilities the
// protocols build their behaviour from: Timer, a restartable one-shot
// alarm used for every fault-detection timeout, and RNG, a small seeded
// generator (splitmix64) giving each consumer its own independent,
// reproducible stream.
package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Event-queue health counters, process-wide across every engine: queuePushes
// counts scheduled events, queueGrows the pushes that had to grow an
// engine's slab instead of reusing a free slot. pushes-grows is the
// free-list hit count — in steady state it should dominate, which is what
// "allocation-free hot path" means for the event queue. Each engine counts
// in its own fields and adds them here when Run or RunUntil returns, so
// parallel workers do not share a cache line per event. ftserve exports
// both as /metrics gauges.
var queuePushes, queueGrows atomic.Uint64

// HeapStats reports how many events were scheduled and how many of those
// pushes grew an engine's slab since process start, counting the engines'
// Run and RunUntil calls that have returned.
func HeapStats() (pushes, grows uint64) {
	return queuePushes.Load(), queueGrows.Load()
}

// ErrLimitReached is returned by Run when the cycle limit is hit before the
// event queue drains. Callers typically treat this as a deadlock or as an
// over-long simulation, depending on context.
var ErrLimitReached = errors.New("sim: cycle limit reached")

// Engine is a deterministic discrete-event simulator clocked in cycles.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	now    uint64
	seq    uint64
	events uint64

	// The event queue (queue.go). slab holds every queued event's payload
	// and the free slots, chained from free (-1 when none). tails[b] is the
	// last event of ring bucket b, valid while bit b of occ is set.
	// overflow orders the events due W or more cycles ahead when queued.
	// queued counts the events in both.
	slab     []slot
	free     int32
	tails    [ringSize]int32
	occ      uint64
	overflow overflowHeap
	queued   int
	// stale counts the dead timer events still queued: firings whose
	// timer was re-armed or stopped after they were scheduled.
	stale int
	// pushes and grows feed HeapStats when Run or RunUntil returns.
	pushes, grows uint64
	// runEnd, when set, runs with runEndArg each time Run or RunUntil
	// returns (AtRunEnd).
	runEnd    func(arg any)
	runEndArg any

	// Model-checking hooks (see choice.go). chooser is nil in normal runs;
	// halted latches once a chooser returns Halt. The scratch slices are
	// reused across choice points so gathering choices stays cheap.
	chooser       Chooser
	halted        bool
	headScratch   []channelHead
	choiceScratch []Choice

	// snap is the buffer Snapshot copies the queue into, built by the
	// first Snapshot (snapshot.go).
	snap *engineSnapshot
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns the engine to the state NewEngine leaves it in: cycle 0,
// an empty queue, sequence and event counts at zero, no chooser, not
// halted. Every queued event is discarded without firing; callers stop
// the timers whose firings they discard first, so a stopped timer never
// refers to a vanished event. The slab, the overflow heap and the choice
// scratch keep their capacity, so a reset engine schedules without
// growing them again. The AtRunEnd hook stays installed.
func (e *Engine) Reset() {
	clear(e.slab) // drop the discarded events' callbacks and arguments
	e.slab = e.slab[:0]
	e.free = -1
	e.occ = 0
	e.overflow = e.overflow[:0]
	e.queued = 0
	e.stale = 0
	e.now, e.seq, e.events = 0, 0, 0
	e.chooser = nil
	e.halted = false
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// EventsExecuted returns the total number of events executed so far.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queued }

// ScheduleCall runs fn(arg, tick) delay cycles from now; a delay of zero
// runs it after every event already scheduled for this cycle. Scheduling
// allocates nothing: arg, typically a long-lived (often pooled) object,
// is pointer-shaped and boxes into the event without a heap allocation.
// tick rides along untouched (a Timer's own firings use it for the arming
// epoch).
func (e *Engine) ScheduleCall(delay uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	e.schedule(e.now+delay, fn, arg, tick)
}

// ScheduleCallAt is ScheduleCall at an absolute cycle. Scheduling in the
// past is a programming error and panics.
func (e *Engine) ScheduleCallAt(at uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleCallAt(%d) is %d cycles in the past (current cycle %d, event tick %d)", at, e.now-at, e.now, tick))
	}
	e.schedule(at, fn, arg, tick)
}

// stepResult says why step did or did not fire an event.
type stepResult uint8

const (
	stepFired   stepResult = iota
	stepIdle               // the queue is empty or the engine halted
	stepPastEnd            // the next event lies past the limit
)

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty or the engine has been halted by
// a chooser. When a chooser is installed and the earliest pending event is
// a choice event, the step becomes a decision point: the chooser picks
// which deliverable event fires (see choice.go).
func (e *Engine) Step() bool { return e.step(0) == stepFired }

// step is Step with Run's limit check folded in, so the earliest event is
// located once per step. A limit of 0 means no limit.
func (e *Engine) step(limit uint64) stepResult {
	if e.queued == 0 {
		return stepIdle
	}
	at, i, inRing := e.peek()
	if limit != 0 && at > limit {
		return stepPastEnd
	}
	if e.halted {
		return stepIdle
	}
	s := &e.slab[i]
	if s.choice && e.chooser != nil {
		return e.stepChoice(at)
	}
	fn, arg, tick := s.fn, s.arg, s.tick
	if inRing { // i heads its bucket: unlink it from the tail
		b := at & ringMask
		if tail := e.tails[b]; tail == i {
			e.occ &^= 1 << b
		} else {
			e.slab[tail].next = s.next
		}
	} else {
		e.overflow.removeAt(0)
	}
	e.release(i)
	e.now = at
	e.events++
	fn(arg, tick)
	e.maybeCompact()
	return stepFired
}

// compactMin is the number of dead timer events below which the queue is
// never compacted: a filter pass over a small queue costs more than the
// dead pops it saves.
const compactMin = 64

// superseded records that an armed timer's pending firing just went dead.
func (e *Engine) superseded() {
	e.stale++
	e.maybeCompact()
}

// maybeCompact compacts the queue once at least compactMin dead timer
// events make up half of it, which bounds the queue at twice its live
// events plus compactMin.
func (e *Engine) maybeCompact() {
	if e.stale >= compactMin && 2*e.stale >= e.queued {
		e.compact()
	}
}

// AtRunEnd installs fn(arg) to run each time Run or RunUntil returns,
// replacing any earlier hook. The network uses it to hand its free
// messages back and publish its pool counters once per run instead of once
// per message (noc.New).
func (e *Engine) AtRunEnd(fn func(arg any), arg any) {
	e.runEnd, e.runEndArg = fn, arg
}

// flushStats adds the engine's push and growth counts to HeapStats and
// runs the AtRunEnd hook.
func (e *Engine) flushStats() {
	queuePushes.Add(e.pushes)
	queueGrows.Add(e.grows)
	e.pushes, e.grows = 0, 0
	if e.runEnd != nil {
		e.runEnd(e.runEndArg)
	}
}

// Run executes events until the queue drains, the engine halts, or the
// clock would pass limit. It returns nil when the queue drained or the
// engine halted, or ErrLimitReached if events remained past the limit. A
// limit of 0 means no limit.
func (e *Engine) Run(limit uint64) error {
	defer e.flushStats()
	for {
		switch e.step(limit) {
		case stepIdle:
			return nil
		case stepPastEnd:
			return fmt.Errorf("%w: %d events pending at cycle %d", ErrLimitReached, e.queued, limit)
		}
	}
}

// RunUntil executes events while pred returns false, stopping when the
// predicate becomes true, the queue drains, the engine halts, or the limit
// passes. It returns true when pred was satisfied.
func (e *Engine) RunUntil(limit uint64, pred func() bool) bool {
	defer e.flushStats()
	for !pred() {
		if e.step(limit) != stepFired {
			return pred()
		}
	}
	return true
}
