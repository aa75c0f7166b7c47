package sim

// Timer implements a restartable, cancelable timeout on top of Engine using
// epoch counters: each arming schedules one firing event tagged with the
// new epoch, and Start, Restart or Stop bump the epoch, which turns the
// pending firing into a dead event that executes as a no-op. Dead events
// are not removed one by one; the timer reports each to its engine, which
// compacts them out of the queue in bulk once they make up half of it
// (Engine.compact), so cancellation stays O(1) and the queue stays
// proportional to the live timeouts. This is the mechanism used for the
// protocol's fault-detection timeouts (lost request, lost unblock, lost
// backup deletion acknowledgment).
//
// Timers are designed to be embedded by value in pooled MSHR/transaction
// entries: the zero value is ready to use after Bind, and arming schedules a
// package-level callback through Engine.ScheduleCall carrying the *Timer
// and the arming epoch, so neither Start nor a re-arm allocates beyond the
// caller's fire closure. When an entry is recycled, its timer must be
// carried over as-is (never zeroed): the epoch counter is what invalidates
// firings still sitting in the event queue from the entry's previous life.
type Timer struct {
	engine *Engine
	epoch  uint64
	armed  bool
	fire   func()
	// fn/arg are the StartCall form of the callback: a package-level
	// function plus its argument. Both are pointer-shaped, so re-arming a
	// timer this way allocates nothing, unlike a capturing fire closure.
	fn  func(arg any)
	arg any
}

// NewTimer returns a stopped timer bound to engine.
func NewTimer(engine *Engine) *Timer {
	return &Timer{engine: engine}
}

// Bind attaches an embedded (zero-value) timer to engine. Binding an
// already-bound timer to the same engine is a no-op, so callers may Bind
// unconditionally before Start.
func (t *Timer) Bind(engine *Engine) { t.engine = engine }

// timerFire is the scheduled callback for every timer: it runs the stored
// fire function only if the timer is still armed for the epoch the event
// was scheduled under.
func timerFire(arg any, epoch uint64) {
	t := arg.(*Timer)
	if t.dead(epoch) {
		t.engine.stale-- // this dead event has left the queue
		return
	}
	t.armed = false
	if t.fn != nil {
		t.fn(t.arg)
		return
	}
	t.fire()
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

// Start arms the timer to call fire after delay cycles. Any previously armed
// firing is cancelled. The callback runs only if the timer has not been
// stopped or restarted in the meantime.
func (t *Timer) Start(delay uint64, fire func()) {
	t.supersede()
	t.fire = fire
	t.fn, t.arg = nil, nil
	t.arm(delay)
}

// StartCall arms the timer to call fn(arg) after delay cycles. It is the
// allocation-free alternative to Start for hot timers: fn is a package-level
// function and arg is typically the pooled entry owning the timer, so no
// closure is built per arm.
func (t *Timer) StartCall(delay uint64, fn func(arg any), arg any) {
	t.supersede()
	t.fire = nil
	t.fn, t.arg = fn, arg
	t.arm(delay)
}

// Restart re-arms the timer with the fire function of the previous Start.
// It must not be called before the first Start.
func (t *Timer) Restart(delay uint64) {
	if t.fire == nil && t.fn == nil {
		panic("sim: Timer.Restart before Start")
	}
	t.supersede()
	t.arm(delay)
}

// arm schedules the firing for the current epoch.
func (t *Timer) arm(delay uint64) {
	t.armed = true
	e := t.engine
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
