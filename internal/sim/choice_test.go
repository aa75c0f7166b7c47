package sim

import (
	"strings"
	"testing"
)

// chooserFunc adapts a function to the Chooser interface.
type chooserFunc func(now uint64, choices []Choice) Decision

func (f chooserFunc) Choose(now uint64, choices []Choice) Decision { return f(now, choices) }

// TestChoiceOffersOnlyChannelHeads pins the FIFO restriction: with two
// events pending on one channel and one on another, the chooser sees one
// choice per channel — the per-channel head — never the queued second
// event, and sees them in deterministic (time, sequence) order.
func TestChoiceOffersOnlyChannelHeads(t *testing.T) {
	e := NewEngine()
	var fired []string
	deliver := func(arg any, _ uint64) { fired = append(fired, arg.(string)) }

	e.ScheduleChoiceAt(1, deliver, nil, "a1", 0, 1, 11)
	e.ScheduleChoiceAt(2, deliver, nil, "a2", 0, 1, 12)
	e.ScheduleChoiceAt(3, deliver, nil, "b1", 0, 2, 21)

	var offered [][]Choice
	e.SetChooser(chooserFunc(func(now uint64, choices []Choice) Decision {
		cp := make([]Choice, len(choices))
		copy(cp, choices)
		offered = append(offered, cp)
		// Always pick the last offered choice, so channel 2 drains first.
		return Decision{Index: len(choices) - 1}
	}))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}

	if want := []string{"b1", "a2", "a1"}; strings.Join(fired, ",") != "b1,a1,a2" {
		// Channel 1 must still deliver in FIFO order even though the
		// chooser prefers the last choice: a1 is the head until it fires.
		t.Fatalf("fired %v, want [b1 a1 a2] (per-channel FIFO); not %v", fired, want)
	}
	if len(offered) != 3 {
		t.Fatalf("%d choice points, want 3", len(offered))
	}
	if len(offered[0]) != 2 || offered[0][0].Info != 11 || offered[0][1].Info != 21 {
		t.Fatalf("first choice point offered %+v, want heads a1 then b1", offered[0])
	}
	for _, c := range offered[0] {
		if c.CanDrop {
			t.Fatalf("no drop path supplied, but choice %+v claims CanDrop", c)
		}
	}
}

// TestChoiceDropFiresLossPath: a Drop decision fires the drop callback,
// not the delivery, and only drop-capable choices may be dropped.
func TestChoiceDropFiresLossPath(t *testing.T) {
	e := NewEngine()
	delivered, dropped := 0, 0
	e.ScheduleChoiceAt(1, func(any, uint64) { delivered++ }, func(any, uint64) { dropped++ }, nil, 0, 1, 0)
	e.SetChooser(chooserFunc(func(_ uint64, choices []Choice) Decision {
		if !choices[0].CanDrop {
			t.Fatal("drop path supplied but CanDrop is false")
		}
		return Decision{Index: 0, Drop: true}
	}))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 || dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 0/1", delivered, dropped)
	}
}

// TestChooserHaltStopsEngine: Halt leaves the queue intact, Step refuses
// to run further, and Halted reports it.
func TestChooserHaltStopsEngine(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleChoiceAt(1, func(any, uint64) { fired = true }, nil, nil, 0, 1, 0)
	e.SetChooser(chooserFunc(func(uint64, []Choice) Decision { return Decision{Halt: true} }))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("halted engine fired the choice event")
	}
	if !e.Halted() {
		t.Fatal("Halted() = false after a halt decision")
	}
	if e.Step() {
		t.Fatal("Step on a halted engine must return false")
	}
}

// TestChoiceEventsWithoutChooserFireInOrder: a system built with choice
// scheduling but no chooser behaves exactly like a normal run.
func TestChoiceEventsWithoutChooserFireInOrder(t *testing.T) {
	e := NewEngine()
	var fired []string
	deliver := func(arg any, _ uint64) { fired = append(fired, arg.(string)) }
	e.ScheduleChoiceAt(3, deliver, nil, "c", 0, 2, 0)
	e.ScheduleChoiceAt(1, deliver, nil, "a", 0, 1, 0)
	e.ScheduleCallAt(2, deliver, "b", 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fired, ","); got != "a,b,c" {
		t.Fatalf("fired %s, want a,b,c (plain timestamp order)", got)
	}
}

// TestSchedulePastPanicMessages pins the diagnostic content of the
// past-scheduling panics: how far in the past, the current cycle, and (for
// call events) the event's callsite tick.
func TestSchedulePastPanicMessages(t *testing.T) {
	mustPanic := func(name string, fn func(), wants ...string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("%s: panic value %T, want string", name, r)
			}
			for _, want := range wants {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q does not mention %q", name, msg, want)
				}
			}
		}()
		fn()
	}

	e := NewEngine()
	e.ScheduleCall(10, nop, nil, 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	mustPanic("ScheduleCallAt", func() { e.ScheduleCallAt(3, func(any, uint64) {}, nil, 42) },
		"ScheduleCallAt(3)", "7 cycles in the past", "current cycle 10", "event tick 42")
	mustPanic("ScheduleChoiceAt", func() { e.ScheduleChoiceAt(3, func(any, uint64) {}, nil, nil, 42, 1, 0) },
		"ScheduleCallAt(3)", "current cycle 10", "event tick 42")
}
