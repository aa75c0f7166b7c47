package proto

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

// Access is one CPU access on an L1 port: a read of Addr, or a write of
// Value when Write is set. A controller keeps an access that must wait as
// this value and reissues it with Retry.
type Access struct {
	Write bool
	Addr  msg.Addr
	Value uint64
	Done  func(AccessResult)
}

// deferred carries a completion (DeferResult) or an access to reissue on
// port (Retry) through the event queue, from one DeferredResults freelist
// back to it as it fires.
type deferred struct {
	owner *DeferredResults
	done  func(AccessResult)
	res   AccessResult
	port  L1Port
	acc   Access
}

// DeferredResults is one controller's freelist of deferred-event records.
// A controller owns one, as the engine owns its event slab, so how many
// records a run allocates depends on the run alone: a sync.Pool would be
// emptied by every GC and refilled by the next run on the same system.
// The zero value is ready to use.
type DeferredResults struct {
	free []*deferred
	// all holds every record ever built, so Reset can reclaim those whose
	// firings the engine reset discarded.
	all []*deferred
}

// Reset returns every record to the freelist, keeping them all. Call it
// with the engine's reset: records still scheduled are abandoned with the
// events that would have fired them.
func (d *DeferredResults) Reset() {
	d.free = append(d.free[:0], d.all...)
}

// DeferredSnapshot holds a DeferredResults' records for Restore: the
// freelist and every record's value. The zero value is an empty buffer;
// Snapshot reuses its storage.
type DeferredSnapshot struct {
	free []*deferred
	vals []deferred
}

// Snapshot copies the freelist and the value of every record d ever built
// into s. A record still scheduled is one a queued engine event points at.
func (d *DeferredResults) Snapshot(s *DeferredSnapshot) {
	s.free = append(s.free[:0], d.free...)
	s.vals = s.vals[:0]
	for _, r := range d.all {
		s.vals = append(s.vals, *r)
	}
}

// Restore returns d to snapshot s, taken from it: every record built by
// then holds its value then, and the ones built since are cleared and
// wait below the restored freelist. Restore it with the engine whose
// events the scheduled records ride on.
func (d *DeferredResults) Restore(s *DeferredSnapshot) {
	extra := d.all[len(s.vals):]
	for i := range s.vals {
		*d.all[i] = s.vals[i]
	}
	for _, r := range extra {
		*r = deferred{}
	}
	d.free = append(append(d.free[:0], extra...), s.free...)
}

// schedule carries v in a record from d to fn, delay cycles from now.
func (d *DeferredResults) schedule(e *sim.Engine, delay uint64, fn func(any, uint64), v deferred) {
	var r *deferred
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		r = new(deferred)
		d.all = append(d.all, r)
	}
	v.owner = d
	*r = v
	e.ScheduleCall(delay, fn, r, 0)
}

// release returns r to its freelist and hands back what it carried.
func (r *deferred) release() deferred {
	v := *r
	*r = deferred{}
	v.owner.free = append(v.owner.free, r)
	return v
}

func deferredResultFire(arg any, _ uint64) {
	v := arg.(*deferred).release()
	v.done(v.res)
}

func retryFire(arg any, _ uint64) {
	v := arg.(*deferred).release()
	if v.acc.Write {
		v.port.Write(v.acc.Addr, v.acc.Value, v.acc.Done)
	} else {
		v.port.Read(v.acc.Addr, v.acc.Done)
	}
}

// DeferResult schedules done(res) after delay cycles on e, carrying both
// in a record from d rather than a closure. Cache hit paths use it: they
// complete after a fixed latency, and once d holds as many records as a
// run has hits in flight the hot path allocates nothing.
func DeferResult(d *DeferredResults, e *sim.Engine, delay uint64, done func(AccessResult), res AccessResult) {
	d.schedule(e, delay, deferredResultFire, deferred{done: done, res: res})
}

// Retry schedules a to be issued again on port after delay cycles on e,
// carried in a record from d like DeferResult's.
func Retry(d *DeferredResults, e *sim.Engine, delay uint64, port L1Port, a Access) {
	d.schedule(e, delay, retryFire, deferred{port: port, acc: a})
}
