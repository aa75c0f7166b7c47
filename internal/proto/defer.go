package proto

import (
	"repro/internal/sim"
)

// deferredResult carries a completion callback and its result through the
// event queue without a per-call closure. Each record belongs to one
// DeferredResults freelist: the fire function returns it there before
// invoking the callback, so each record lives exactly from schedule to
// fire.
type deferredResult struct {
	owner *DeferredResults
	done  func(AccessResult)
	res   AccessResult
}

// DeferredResults is one controller's freelist of deferred-result records.
// A controller owns one, as the engine owns its event slab, so how many
// records a run allocates depends on the run alone: a sync.Pool would be
// emptied by every GC and refilled by the next run on the same system.
// The zero value is ready to use.
type DeferredResults struct {
	free []*deferredResult
	// all holds every record ever built, so Reset can reclaim those whose
	// firings the engine reset discarded.
	all []*deferredResult
}

// Reset returns every record to the freelist, keeping them all. Call it
// with the engine's reset: records still scheduled are abandoned with the
// events that would have fired them.
func (d *DeferredResults) Reset() {
	d.free = append(d.free[:0], d.all...)
}

func deferredResultFire(arg any, _ uint64) {
	r := arg.(*deferredResult)
	done, res := r.done, r.res
	r.done = nil
	r.owner.free = append(r.owner.free, r)
	done(res)
}

// DeferResult schedules done(res) after delay cycles on e, carrying both
// in a record from d rather than a closure. Cache hit paths use it: they
// complete after a fixed latency, and once d holds as many records as a
// run has hits in flight the hot path allocates nothing.
func DeferResult(d *DeferredResults, e *sim.Engine, delay uint64, done func(AccessResult), res AccessResult) {
	var r *deferredResult
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		r = &deferredResult{owner: d}
		d.all = append(d.all, r)
	}
	r.done = done
	r.res = res
	e.ScheduleCall(delay, deferredResultFire, r, 0)
}
