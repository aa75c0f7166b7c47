package sim

import (
	"fmt"
	"testing"
)

// fuzzDelays are the delays the fuzz target schedules at: same cycle, next
// cycle, both sides of the ring's horizon W, twice W, and a Table 3
// timeout's order of magnitude — so events land in the ring, in the
// overflow heap, and on the boundary between them.
var fuzzDelays = [...]uint64{0, 1, ringSize - 1, ringSize, ringSize + 1, 2 * ringSize, 4096}

// fuzzHarness decodes bytes into engine operations and checks the engine
// against refQueue after every one: identical firing order and cycles,
// Pending = live + stale, and Pending <= 2×live + compactMin. With a
// chooser installed, choice points must offer exactly the reference's
// channel heads, and the byte-selected head fires at the queue minimum.
type fuzzHarness struct {
	t      *testing.T
	data   []byte
	e      *Engine
	ref    refQueue
	timers [4]Timer
	ctxs   [4]fuzzTimer
	nextID int
	fired  int
	// chosen is the id the chooser just picked (0 = none) and chosenAt the
	// cycle it must fire at; dropped says it takes the drop path.
	chosen   int
	chosenAt uint64
	dropped  bool
}

// next consumes one byte, 0 once the input is exhausted.
func (h *fuzzHarness) next() int {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return int(b)
}

func (h *fuzzHarness) delay() uint64 { return fuzzDelays[h.next()%len(fuzzDelays)] }

func (h *fuzzHarness) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("cycle %d: %s", h.e.Now(), fmt.Sprintf(format, args...))
}

// fire is every live callback.
func (h *fuzzHarness) fire(id int, drop bool) {
	if h.chosen != 0 {
		if id != h.chosen || drop != h.dropped || h.e.Now() != h.chosenAt {
			h.fail("fired id %d (drop %t), chooser picked %d (drop %t) at cycle %d", id, drop, h.chosen, h.dropped, h.chosenAt)
		}
		h.chosen = 0
	} else {
		want, ok := h.ref.pop()
		if !ok {
			h.fail("event %d fired, reference queue is empty", id)
		}
		if want.id != id || want.at != h.e.Now() || drop {
			h.fail("fired (id %d, drop %t), reference expects id %d at cycle %d", id, drop, want.id, want.at)
		}
	}
	h.fired++
	for n := h.next() % 3; n > 0; n-- {
		h.op()
	}
}

type fuzzTimer struct {
	h  *fuzzHarness
	id int
}

func fuzzTimerFire(arg any) {
	c := arg.(*fuzzTimer)
	c.h.fire(c.id, false)
}

// fuzzFire and fuzzDrop are every plain and choice event's delivery and
// loss paths: tick is the event's id.
func fuzzFire(arg any, tick uint64) { arg.(*fuzzHarness).fire(int(tick), false) }
func fuzzDrop(arg any, tick uint64) { arg.(*fuzzHarness).fire(int(tick), true) }

// Choose checks the offered choices against the reference heads and picks
// one by the next byte, taking its drop path when it has one and the byte
// says so.
func (h *fuzzHarness) Choose(now uint64, choices []Choice) Decision {
	m := h.ref.entries[h.ref.min()]
	if !m.choice || m.at != now {
		h.fail("choice point at cycle %d, reference minimum is id %d at cycle %d (choice %t)", now, m.id, m.at, m.choice)
	}
	heads := h.ref.heads()
	if len(heads) != len(choices) {
		h.fail("offered %d choices, reference has %d channel heads", len(choices), len(heads))
	}
	for i, c := range choices {
		if c.Info != uint64(heads[i].id) || c.Key != heads[i].key || c.At != heads[i].at {
			h.fail("choice %d = %+v, reference head is id %d key %d at %d", i, c, heads[i].id, heads[i].key, heads[i].at)
		}
	}
	b := h.next()
	k := b % len(choices)
	for i, ev := range h.ref.entries {
		if ev.id == heads[k].id {
			h.ref.remove(i)
			break
		}
	}
	h.chosen, h.chosenAt, h.dropped = heads[k].id, now, choices[k].CanDrop && b&0x80 != 0
	return Decision{Index: k, Drop: h.dropped}
}

// op performs one decoded operation on both the engine and the model.
func (h *fuzzHarness) op() {
	switch h.next() % 6 {
	case 0: // event a delay from now
		h.nextID++
		id, d := h.nextID, h.delay()
		h.e.ScheduleCall(d, fuzzFire, h, uint64(id))
		h.ref.add(h.e.Now()+d, id, -1)
	case 1: // event at an absolute cycle
		h.nextID++
		id, at := h.nextID, h.e.Now()+h.delay()
		h.e.ScheduleCallAt(at, fuzzFire, h, uint64(id))
		h.ref.add(at, id, -1)
	case 2: // choice event on one of three channels, droppable or not
		h.nextID++
		id, at, key := h.nextID, h.e.Now()+h.delay(), uint64(h.next()%3)
		var drop func(any, uint64)
		if h.next()%2 == 0 {
			drop = fuzzDrop
		}
		h.e.ScheduleChoiceAt(at, fuzzFire, drop, h, uint64(id), key, uint64(id))
		h.ref.addChoice(at, id, key)
	default: // timer (re-)arm, or Stop for one byte value in four
		i := h.next() % len(h.timers)
		tm := &h.timers[i]
		id := timerIDBase + i
		h.ref.cancel(i)
		d := h.delay()
		if h.next()%4 == 3 {
			tm.Stop()
			h.check()
			return
		}
		tm.Start(h.e, d, fuzzTimerFire, &h.ctxs[i])
		h.ref.add(h.e.Now()+d, id, i)
	}
	h.check()
}

// check enforces the queue-size accounting against the live count.
func (h *fuzzHarness) check() {
	live, p := len(h.ref.entries), h.e.Pending()
	if p != live+h.e.stale {
		h.fail("Pending() = %d, want %d live + %d stale", p, live, h.e.stale)
	}
	if p > 2*live+compactMin {
		h.fail("Pending() = %d with %d live events, want <= %d", p, live, 2*live+compactMin)
	}
}

// step runs the engine until one live event fires and reports whether one
// did.
func (h *fuzzHarness) step() bool {
	before := h.fired
	for h.fired == before {
		if !h.e.Step() {
			return false
		}
		h.check()
	}
	return true
}

// FuzzEngineOrder: the first byte selects whether a chooser resolves
// choice points; each later byte starts an operation (schedule, timer
// operation, or step), with further bytes as its parameters and as the
// nested operations callbacks perform. The engine is drained at the end
// and must fire every live event exactly once. Inputs are cut at
// maxFuzzInput bytes, which keeps the fuzzer minimizing short inputs.
func FuzzEngineOrder(f *testing.F) {
	const maxFuzzInput = 256
	f.Add([]byte{0, 0, 0, 6, 1, 6, 2, 2, 1, 0, 5, 7, 8, 9})
	f.Add([]byte{1, 2, 6, 0, 0, 2, 5, 1, 1, 2, 4, 2, 1, 8, 8, 130, 8, 8})
	f.Add([]byte{1, 3, 0, 6, 1, 3, 0, 6, 3, 3, 1, 3, 2, 8, 2, 3, 2, 2, 0, 8, 8, 8})
	seed := make([]byte, 0, maxFuzzInput)
	for i := 0; i < maxFuzzInput; i++ {
		seed = append(seed, byte(i*37+i/7))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxFuzzInput)]
		h := &fuzzHarness{t: t, data: data, e: NewEngine()}
		for i := range h.ctxs {
			h.ctxs[i] = fuzzTimer{h, timerIDBase + i}
		}
		if h.next()%2 == 1 {
			h.e.SetChooser(h)
		}
		for len(h.data) > 0 {
			if h.next()%8 >= 6 {
				h.step()
			} else {
				h.op()
			}
		}
		for h.step() {
		}
		if n := len(h.ref.entries); n != 0 {
			t.Fatalf("engine drained with %d live events unfired", n)
		}
		if h.e.Pending() != 0 || h.e.stale != 0 {
			t.Fatalf("drained engine reports %d pending, %d stale", h.e.Pending(), h.e.stale)
		}
	})
}
