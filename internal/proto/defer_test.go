package proto

import (
	"testing"

	"repro/internal/sim"
)

// TestDeferResultFiresInOrder: each deferred completion fires once, after
// its delay, with its own result, whether its record is new or reused.
func TestDeferResultFiresInOrder(t *testing.T) {
	e := sim.NewEngine()
	var d DeferredResults
	var got []uint64
	done := func(r AccessResult) { got = append(got, r.Value) }
	for round := 0; round < 2; round++ {
		got = got[:0]
		for v := uint64(1); v <= 3; v++ {
			DeferResult(&d, e, 4-v, done, AccessResult{Value: v})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
			t.Fatalf("round %d: completions fired as %v, want [3 2 1]", round, got)
		}
	}
	if len(d.all) != 3 || len(d.free) != 3 {
		t.Fatalf("two rounds of three completions built %d records (%d free), want 3", len(d.all), len(d.free))
	}
}

// TestDeferredResultsResetReclaims: records still scheduled when the
// engine is reset are abandoned with their events; Reset hands them back,
// so deferring again after a reset builds no record.
func TestDeferredResultsResetReclaims(t *testing.T) {
	e := sim.NewEngine()
	var d DeferredResults
	fired := 0
	done := func(AccessResult) { fired++ }
	path := func() {
		for i := 0; i < 3; i++ {
			DeferResult(&d, e, 5, done, AccessResult{})
		}
		e.Reset()
		d.Reset()
	}
	path()
	for i := 0; i < 4; i++ {
		path()
	}
	if fired != 0 {
		t.Fatalf("%d abandoned completions fired", fired)
	}
	if len(d.all) != 3 || len(d.free) != 3 {
		t.Fatalf("five reset paths of three completions built %d records (%d free), want 3", len(d.all), len(d.free))
	}
}
