package sim

// Timer implements a restartable, cancelable timeout on top of Engine using
// epoch counters: each arming schedules one firing event tagged with the
// new epoch, and Start or Stop bump the epoch, which turns the pending
// firing into a dead event that executes as a no-op. Dead events are not
// removed one by one; the timer reports each to its engine, which compacts
// them out of the queue in bulk once they make up half of it
// (Engine.compact), so cancellation stays O(1) and the queue stays
// proportional to the live timeouts. This is the mechanism used for the
// protocol's fault-detection timeouts (lost request, lost unblock, lost
// backup deletion acknowledgment).
//
// Timers are designed to be embedded by value in pooled MSHR/transaction
// entries: the zero value is ready to use. Start takes the callback as a
// handler plus its argument — a package-level function and, typically, the
// pooled entry owning the timer — and the firing event carries the *Timer
// and the arming epoch, so arming allocates nothing. When an entry is
// recycled, its timer must be stopped and carried over as-is (never
// zeroed): the epoch counter is what invalidates firings still sitting in
// the event queue from the entry's previous life.
type Timer struct {
	engine *Engine
	epoch  uint64
	armed  bool
	fn     func(arg any)
	arg    any
}

// timerFire is the scheduled callback for every timer: it runs the timer's
// handler only if the timer is still armed for the epoch the event was
// scheduled under.
func timerFire(arg any, epoch uint64) {
	t := arg.(*Timer)
	if t.dead(epoch) {
		t.engine.stale-- // this dead event has left the queue
		return
	}
	t.armed = false
	t.fn(t.arg)
}

// dead reports whether a firing scheduled under epoch has been superseded.
func (t *Timer) dead(epoch uint64) bool { return t.epoch != epoch || !t.armed }

// supersede invalidates the pending firing, if any, by advancing the epoch
// and disarming, and tells the engine the firing's event is now dead.
func (t *Timer) supersede() {
	t.epoch++
	if t.armed {
		t.armed = false
		t.engine.superseded()
	}
}

// Start arms the timer to call fn(arg) delay cycles from now on e. Any
// previously armed firing is cancelled, and the handler runs only if the
// timer has not been stopped or started again in the meantime.
func (t *Timer) Start(e *Engine, delay uint64, fn func(arg any), arg any) {
	t.supersede()
	t.engine = e
	t.fn, t.arg = fn, arg
	t.armed = true
	e.schedule(e.now+delay, timerFire, t, t.epoch).timer = true
}

// Stop cancels any armed firing.
func (t *Timer) Stop() { t.supersede() }

// Armed reports whether the timer is currently armed.
func (t *Timer) Armed() bool { return t.armed }

// Backoff returns base doubled per retry attempt (attempt 0 = base),
// capped at 64x. Reissue timers use it so that a fault-detection timeout
// configured below the network's round-trip time degrades into slower
// retries instead of a livelock where every attempt is superseded before
// its response can arrive.
func Backoff(base uint64, attempt int) uint64 {
	if attempt > 6 {
		attempt = 6
	}
	return base << uint(attempt)
}
