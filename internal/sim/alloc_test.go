//go:build !race

// The race detector instruments closures and interface conversions and
// can add allocations of its own, so the pin runs only without it.

package sim

import "testing"

// TestEngineSteadyStateAllocs pins the allocation-free hot path: once the
// slab and the overflow heap have grown to the working set, scheduling
// (near and far), arming and re-arming a timer and stepping allocate
// nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	tm := &Timer{}
	call := func(any, uint64) {}
	fire := func(any) {}
	round := func() {
		e.ScheduleCall(3, call, nil, 0)
		e.ScheduleCall(5, call, tm, 1)
		e.ScheduleCall(300, call, tm, 2)
		tm.Start(e, 2048, fire, tm)
		tm.Start(e, 4000, fire, tm)
		for e.Pending() > 3 {
			e.Step()
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("warmed engine: %.1f allocs per schedule/restart/step round, want 0", n)
	}
}
