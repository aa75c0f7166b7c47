package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Dead timer compaction: a re-armed or stopped timer leaves its old firing
// in the queue, and the engine filters such events out in bulk once they
// make up half the queue. These tests pin that compaction is invisible —
// the live events fire in the same order at the same cycles — and that it
// keeps the queue within 2×live + compactMin events.

// refQueue is the reference model: the live events as an unordered list,
// popped by minimum (at, seq). A timer has at most one live entry.
type refQueue struct {
	entries []refEvent
	seq     uint64
}

type refEvent struct {
	at, seq uint64
	id      int
	timer   int // owning timer index, -1 for plain and choice events
}

func (r *refQueue) add(at uint64, id, timer int) {
	r.seq++
	r.entries = append(r.entries, refEvent{at: at, seq: r.seq, id: id, timer: timer})
}

// cancel removes timer's live entry and reports whether it had one.
func (r *refQueue) cancel(timer int) bool {
	for i, ev := range r.entries {
		if ev.timer == timer {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refQueue) pop() (refEvent, bool) {
	if len(r.entries) == 0 {
		return refEvent{}, false
	}
	best := 0
	for i, ev := range r.entries {
		if ev.at < r.entries[best].at || ev.at == r.entries[best].at && ev.seq < r.entries[best].seq {
			best = i
		}
	}
	ev := r.entries[best]
	r.entries = append(r.entries[:best], r.entries[best+1:]...)
	return ev, true
}

// compactHarness drives an engine and the reference model with the same
// random operations, from the top level and from inside firing callbacks.
type compactHarness struct {
	t      *testing.T
	rng    *rand.Rand
	e      *Engine
	ref    refQueue
	timers []*Timer
	nextID int
	fired  int
	// superseded counts the live timer events cancelled by a re-arm or
	// Stop: without compaction each would later execute as a no-op.
	superseded int
}

const timerIDBase = 1 << 20

func newCompactHarness(t *testing.T, seed int64, timers int) *compactHarness {
	h := &compactHarness{t: t, rng: rand.New(rand.NewSource(seed)), e: NewEngine()}
	for i := 0; i < timers; i++ {
		h.timers = append(h.timers, NewTimer(h.e))
	}
	return h
}

// fire is every callback: it checks the event against the reference
// model's minimum, then sometimes performs nested operations.
func (h *compactHarness) fire(id int) {
	want, ok := h.ref.pop()
	if !ok {
		h.t.Fatalf("event %d fired at cycle %d, reference queue is empty", id, h.e.Now())
	}
	if want.id != id || want.at != h.e.Now() {
		h.t.Fatalf("fired (cycle %d, id %d), reference expects (cycle %d, id %d)", h.e.Now(), id, want.at, want.id)
	}
	h.fired++
	for n := h.rng.Intn(3); n > 0; n-- {
		h.op()
	}
}

func timerCallFire(arg any) {
	c := arg.(*timerCtx)
	c.h.fire(timerIDBase + c.idx)
}

type timerCtx struct {
	h   *compactHarness
	idx int
}

// op performs one random operation on both the engine and the model.
func (h *compactHarness) op() {
	delay := uint64(h.rng.Intn(200))
	switch k := h.rng.Intn(10); {
	case k < 2: // plain event
		h.nextID++
		id := h.nextID
		h.e.Schedule(delay, func() { h.fire(id) })
		h.ref.add(h.e.Now()+delay, id, -1)
	case k < 3: // choice event, fired in timestamp order without a chooser
		h.nextID++
		id := h.nextID
		h.e.ScheduleChoiceAt(h.e.Now()+delay, func(any, uint64) { h.fire(id) }, nil, nil, 0, uint64(id%4), 0)
		h.ref.add(h.e.Now()+delay, id, -1)
	default: // timer operation
		i := h.rng.Intn(len(h.timers))
		tm := h.timers[i]
		if h.ref.cancel(i) {
			h.superseded++
		}
		switch h.rng.Intn(4) {
		case 0:
			tm.Start(delay, func() { h.fire(timerIDBase + i) })
		case 1:
			tm.StartCall(delay, timerCallFire, &timerCtx{h, i})
		case 2:
			if tm.fire == nil && tm.fn == nil {
				tm.StartCall(delay, timerCallFire, &timerCtx{h, i})
			} else {
				tm.Restart(delay)
			}
		case 3:
			tm.Stop()
			h.check()
			return
		}
		h.ref.add(h.e.Now()+delay, timerIDBase+i, i)
	}
	h.check()
}

// check enforces the queue bound against the live count, and that the
// engine's stale count is exactly the number of dead events it holds.
func (h *compactHarness) check() {
	live := len(h.ref.entries)
	p := h.e.Pending()
	if p > 2*live+compactMin {
		h.t.Fatalf("Pending() = %d with %d live events, want <= %d", p, live, 2*live+compactMin)
	}
	if p != live+h.e.stale {
		h.t.Fatalf("Pending() = %d, want %d live + %d stale", p, live, h.e.stale)
	}
}

// step runs the engine until one live event fires (dead events on the way
// execute as no-ops at cycles no later than it).
func (h *compactHarness) step() bool {
	before := h.fired
	for h.fired == before {
		if !h.e.Step() {
			return false
		}
		h.check()
	}
	return true
}

func TestCompactionMatchesReferenceModel(t *testing.T) {
	compacted := false
	for seed := int64(1); seed <= 60; seed++ {
		h := newCompactHarness(t, seed, 150)
		for round := 0; round < 3000; round++ {
			if h.rng.Intn(3) == 0 {
				h.step()
			} else {
				h.op()
			}
		}
		for h.step() {
		}
		if len(h.ref.entries) != 0 {
			t.Fatalf("seed %d: engine drained with %d live events unfired", seed, len(h.ref.entries))
		}
		// Every live event executed once; of the superseded ones, only
		// those compaction did not remove executed (as no-ops).
		deadRun := h.e.EventsExecuted() - uint64(h.fired)
		if deadRun > uint64(h.superseded) {
			t.Fatalf("seed %d: %d dead events executed, only %d superseded", seed, deadRun, h.superseded)
		}
		compacted = compacted || deadRun < uint64(h.superseded)
	}
	if !compacted {
		t.Fatal("no seed ever compacted: the test does not exercise compaction")
	}
}

// TestCompactionRebuildsHeap is the re-heapify regression: after the dead
// events are filtered out, survivors must move up past parents that have
// not been processed yet. Each layout is a valid heap before filtering; the
// first defeats a top-down sift-down pass, the second a bottom-up pass of
// the single-element fix (sift down, else sift up), whose sift-up strands
// the displaced parent above smaller children.
func TestCompactionRebuildsHeap(t *testing.T) {
	e := NewEngine()
	tm := &Timer{engine: e, epoch: 2, armed: true}
	nop := func(any, uint64) {}
	live := func(at uint64) event { return event{at: at, seq: at, fn: nop} }
	dead := func(at uint64) event { return event{at: at, seq: at, fn: timerFire, arg: tm, tick: 1, timer: true} }
	for _, c := range []struct {
		heap eventHeap
		want []uint64
	}{
		{eventHeap{dead(1), live(20), dead(2), live(21), live(22), dead(3), live(5)}, []uint64{5, 20, 21, 22}},
		{eventHeap{dead(1), live(10), live(3), dead(12), dead(13), live(6), live(4),
			dead(14), dead(15), dead(16), dead(17), dead(18), dead(19), live(5)}, []uint64{3, 4, 5, 6, 10}},
	} {
		e.pq = c.heap
		assertHeap(t, e.pq)
		e.stale = len(c.heap) - len(c.want)
		e.compact()
		if len(e.pq) != len(c.want) || e.stale != 0 {
			t.Fatalf("after compaction: %d events, stale %d; want %d and 0", len(e.pq), e.stale, len(c.want))
		}
		assertHeap(t, e.pq)
		var order []uint64
		for len(e.pq) > 0 {
			order = append(order, e.pq.pop().at)
		}
		if !slices.Equal(order, c.want) {
			t.Fatalf("pop order after compaction = %v, want %v", order, c.want)
		}
	}

	// Randomised: any heap with any subset of dead timer events compacts
	// into a valid heap of exactly the live events.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var h eventHeap
		liveN := 0
		for i, n := 0, rng.Intn(300); i < n; i++ {
			at := uint64(rng.Intn(50))
			ev := live(at)
			if rng.Intn(2) == 0 {
				ev = dead(at)
			} else {
				liveN++
			}
			ev.seq = uint64(i)
			h.push(ev)
		}
		e.pq = h
		e.compact()
		if len(e.pq) != liveN {
			t.Fatalf("trial %d: %d events survive, want %d live", trial, len(e.pq), liveN)
		}
		assertHeap(t, e.pq)
	}
}

func assertHeap(t *testing.T, h eventHeap) {
	t.Helper()
	for i := 1; i < len(h); i++ {
		if h.less(i, (i-1)/2) {
			t.Fatalf("heap property violated at %d (at %d) under parent %d (at %d)", i, h[i].at, (i-1)/2, h[(i-1)/2].at)
		}
	}
}
