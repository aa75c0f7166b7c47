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
// The event queue is a concrete binary min-heap over a slice of event
// values. Scheduling is allocation-free in steady state: events are stored
// by value (no container/heap interface boxing), popped slots are recycled
// in place, and the backing array stops growing once it reaches the
// simulation's peak queue depth. That depth counts live events only: the
// timer events a re-arm or Stop leaves behind are compacted out of the
// queue once they make up half of it (see compact). Callers that would
// otherwise allocate a closure per event can use ScheduleCall, which
// carries a pointer-shaped argument and a tick through the event instead
// of capturing them.
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

// Event-queue health counters, process-wide across every engine: heapPushes
// counts scheduled events, heapGrows the pushes that had to grow a heap's
// backing array instead of reusing a recycled slot. pushes-grows is the
// freelist hit count — in steady state it should dominate, which is what
// "allocation-free hot path" means for the event queue. ftserve exports
// both as /metrics gauges.
var heapPushes, heapGrows atomic.Uint64

// HeapStats reports how many events were scheduled and how many of those
// pushes grew a heap's backing array since process start.
func HeapStats() (pushes, grows uint64) {
	return heapPushes.Load(), heapGrows.Load()
}

// ErrLimitReached is returned by Run when the cycle limit is hit before the
// event queue drains. Callers typically treat this as a deadlock or as an
// over-long simulation, depending on context.
var ErrLimitReached = errors.New("sim: cycle limit reached")

// event is a scheduled callback. fn is always set; arg and tick are the
// ScheduleCall payload (nil/zero for plain closures, which travel in arg).
// timer marks a Timer firing (arg is the *Timer, tick its arming epoch), so
// compaction can recognise superseded ones. choice marks the event as a
// model-checking decision point (see choice.go): key identifies its ordered
// channel, info carries an opaque payload for the chooser, and dropFn is
// the alternative callback fired when the chooser decides to lose the event
// instead of delivering it.
type event struct {
	at     uint64
	seq    uint64
	fn     func(arg any, tick uint64)
	arg    any
	tick   uint64
	choice bool
	timer  bool
	key    uint64
	info   uint64
	dropFn func(arg any, tick uint64)
}

// runFunc adapts a plain func() stored in arg to the event callback shape.
// Boxing a func value into an interface stores its (pointer-shaped) value
// directly, so Schedule stays allocation-free beyond the caller's closure.
func runFunc(arg any, _ uint64) { arg.(func())() }

// eventHeap is a binary min-heap ordered by (at, seq), implemented with
// concrete sift-up/sift-down so events never round-trip through interface
// values. The backing array is retained across pops and reused.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev event) {
	heapPushes.Add(1)
	if len(*h) == cap(*h) {
		heapGrows.Add(1)
	}
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// siftUp moves the element at i up until its parent is not larger.
func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated slot is cleared so
// the backing array does not retain the callback or its argument, but the
// array itself is kept for reuse.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	q.siftDown(0)
	return ev
}

// siftDown moves the element at i down until neither child is smaller and
// returns its final index.
func (h eventHeap) siftDown(i int) int {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return i
}

// Engine is a deterministic discrete-event simulator clocked in cycles.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	pq     eventHeap
	now    uint64
	seq    uint64
	events uint64
	// stale counts the dead timer events still in pq: firings whose timer
	// was re-armed or stopped after they were scheduled.
	stale int

	// Model-checking hooks (see choice.go). chooser is nil in normal runs;
	// halted latches once a chooser returns Halt. The scratch fields are
	// reused across choice points so gathering choices stays cheap.
	chooser       Chooser
	halted        bool
	headScratch   map[uint64]int
	idxScratch    []int
	choiceScratch []Choice
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// EventsExecuted returns the total number of events executed so far.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.pq) }

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle (after all events already scheduled for this cycle).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.seq++
	e.pq.push(event{at: e.now + delay, seq: e.seq, fn: runFunc, arg: fn})
}

// ScheduleAt runs fn at absolute cycle at. Scheduling in the past is a
// programming error and panics.
func (e *Engine) ScheduleAt(at uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) is %d cycles in the past (current cycle %d)", at, e.now-at, e.now))
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, fn: runFunc, arg: fn})
}

// ScheduleCall runs fn(arg, tick) delay cycles from now. Unlike Schedule it
// needs no closure: fn is typically a package-level function and arg a
// long-lived (often pooled) object, so scheduling allocates nothing —
// pointer-shaped args box into the event's interface field without a heap
// allocation. tick rides along untouched (a Timer's own firings use it
// for the arming epoch).
func (e *Engine) ScheduleCall(delay uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	e.seq++
	e.pq.push(event{at: e.now + delay, seq: e.seq, fn: fn, arg: arg, tick: tick})
}

// ScheduleCallAt is ScheduleCall at an absolute cycle. Scheduling in the
// past is a programming error and panics.
func (e *Engine) ScheduleCallAt(at uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleCallAt(%d) is %d cycles in the past (current cycle %d, event tick %d)", at, e.now-at, e.now, tick))
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, fn: fn, arg: arg, tick: tick})
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty or the engine has been halted by
// a chooser. When a chooser is installed and the earliest pending event is
// a choice event, the step becomes a decision point: the chooser picks
// which deliverable event fires (see choice.go).
func (e *Engine) Step() bool {
	if e.halted || len(e.pq) == 0 {
		return false
	}
	if e.chooser != nil && e.pq[0].choice {
		return e.stepChoice()
	}
	ev := e.pq.pop()
	e.now = ev.at
	e.events++
	ev.fn(ev.arg, ev.tick)
	e.maybeCompact()
	return true
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
	if e.stale >= compactMin && 2*e.stale >= len(e.pq) {
		e.compact()
	}
}

// compact removes every dead timer event — exactly the events timerFire
// would ignore — and rebuilds the heap. Live events keep their (at, seq)
// keys, which order them totally, so the firing sequence is unchanged;
// only the no-op executions of dead events disappear. The rebuild is the
// bottom-up heapify, sift-down only from the last parent to the root. (The
// single-element fix would be wrong here: its sift-up swaps a survivor with
// a parent not yet processed, stranding that parent above smaller
// children.)
func (e *Engine) compact() {
	q := e.pq
	n := 0
	for i := range q {
		if q[i].timer && q[i].arg.(*Timer).dead(q[i].tick) {
			continue
		}
		q[n] = q[i]
		n++
	}
	clear(q[n:])
	q = q[:n]
	for i := n/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	e.pq = q
	e.stale = 0
}

// Run executes events until the queue drains, the engine halts, or the
// clock would pass limit. It returns nil when the queue drained or the
// engine halted, or ErrLimitReached if events remained past the limit. A
// limit of 0 means no limit.
func (e *Engine) Run(limit uint64) error {
	for len(e.pq) > 0 {
		if limit != 0 && e.pq[0].at > limit {
			return fmt.Errorf("%w: %d events pending at cycle %d", ErrLimitReached, len(e.pq), limit)
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// RunUntil executes events while pred returns false, stopping when the
// predicate becomes true, the queue drains, the engine halts, or the limit
// passes. It returns true when pred was satisfied.
func (e *Engine) RunUntil(limit uint64, pred func() bool) bool {
	for !pred() {
		if len(e.pq) == 0 {
			return pred()
		}
		if limit != 0 && e.pq[0].at > limit {
			return pred()
		}
		if !e.Step() {
			return pred()
		}
	}
	return true
}
